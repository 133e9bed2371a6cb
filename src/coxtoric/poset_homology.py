"""Homology of open intervals in the lattice of even-size subsets of [n].

The order complex of the open interval below a set of size 2i includes the
empty chain in degree -1, so its homology is reduced; degrees are reported as
m = (complex degree) + 2, which makes the bottom interval sit in m = 0 and the
interval below an atom in m = 1. All interval homologies here are concentrated
in top degree m = i, which is verified computationally, never assumed.

Chains are built level by level: a chain of degree d + 1 is a chain of degree
d with one element above its top appended. Each boundary rank is computed
once, and every degree's homology is read off that list of ranks.

The symmetric group character on the top homology is extracted through the
Hopf trace: for one representative per cycle type, the alternating sum of
counts of setwise-fixed chains equals the alternating sum of homology traces.
A chain fixed setwise is fixed blockwise, because its members have pairwise
distinct sizes, so the chain count really is the trace on the chain group.
The fixed chains are the chains of the subposet of fixed elements, and their
signed count is summed by top element: a chain topped by e is e alone or a
chain topped by some fixed f < e with e added one degree up. The trace reads
the element list only, never the chains.

Two results are cached because commands read them again: the homology ranks
(re-read by the concentration check) and the decomposed top homology (re-read
by every Whitney degree and series term); the complex is not kept.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .combinatorics import (
    apply_permutation,
    cycle_type_representative,
    partitions_of,
)
from .linalg import sparse_rank
from .rep_ring import (
    ClassFunction,
    RepSeries,
    SchurVector,
    decompose,
    pieri_h,
)

DEFAULT_BRUTE_FORCE_BOUND = 8
# Largest interval size the brute-force route is allowed to reach: size 10
# takes seconds and a few hundred MB, size 12 has 7.48 M top chains.
MAX_BRUTE_FORCE_BOUND = 10


def _elements(top_size: int) -> list[frozenset]:
    """Even subsets strictly between {} and [top_size], by size, then lex."""
    return [frozenset(sub) for size in range(2, top_size - 1, 2)
            for sub in combinations(range(1, top_size + 1), size)]


class IntervalComplex:
    """Order complex of the open interval between {} and a set of even size."""

    def __init__(self, top_size: int):
        if top_size < 2 or top_size % 2 or top_size > MAX_BRUTE_FORCE_BOUND:
            raise ValueError("top size must be even and in the brute-force "
                             f"range 2..{MAX_BRUTE_FORCE_BOUND}")
        self.top_size = top_size
        self.elements = elements = _elements(top_size)
        above = {e: [f for f in elements if e < f] for e in elements}
        self.chains: dict[int, tuple] = {-1: ((),)}
        level = [(e,) for e in elements]
        while level:
            self.chains[len(self.chains) - 1] = tuple(level)
            level = [c + (f,) for c in level for f in above[c[-1]]]

    def simplex_count(self, d: int) -> int:
        return len(self.chains.get(d, ()))

    def dimensions(self):
        return sorted(self.chains)

    def boundary_columns(self, d: int) -> list[dict[int, int]]:
        """Boundary map in degree d as one {row: sign} dict per d-simplex."""
        if d not in self.chains or d - 1 not in self.chains:
            return []
        index = {c: i for i, c in enumerate(self.chains[d - 1])}
        cols = []
        for chain in self.chains[d]:
            col: dict[int, int] = {}
            for j in range(len(chain)):
                face = chain[:j] + chain[j + 1:]
                col[index[face]] = 1 if j % 2 == 0 else -1
            cols.append(col)
        return cols


def build_interval_complex(top_size: int) -> IntervalComplex:
    return IntervalComplex(top_size)


@lru_cache(maxsize=None)
def homology_ranks(interval_size: int) -> dict[int, int]:
    """Ranks of H_m of the open interval below a set of the given even size.

    Keys are the shifted degrees m = complex degree + 2; only nonzero ranks
    appear. The empty interval is {0: 1} by convention.
    """
    if interval_size < 0 or interval_size % 2:
        raise ValueError("interval size must be even and nonnegative")
    if interval_size == 0:
        return {0: 1}
    cx = build_interval_complex(interval_size)
    top = interval_size // 2 - 2
    # rank[d + 1] is the rank of the boundary out of degree d, for d = -1..top+1.
    rank = [0] + [sparse_rank(cx.boundary_columns(d)) for d in range(top + 1)] + [0]
    homology = {d + 2: cx.simplex_count(d) - rank[d + 1] - rank[d + 2]
                for d in range(-1, top + 1)}
    return {m: h for m, h in homology.items() if h}


def cm_concentration_check(n: int) -> bool:
    """True iff the homology below [n] lives only in degree n/2."""
    if n < 0 or n % 2:
        raise ValueError("n must be even and nonnegative")
    ranks = homology_ranks(n)
    return set(ranks) == {n // 2}


def equivariant_top_character(n: int) -> ClassFunction:
    """Character of S_n on the top homology of the interval below [n].

    Uses the Hopf trace over fixed chains, which needs the concentration
    check to pass first; a failure there aborts loudly rather than returning
    a wrong character.
    """
    if n < 0 or n % 2:
        raise ValueError("n must be even and nonnegative")
    if n == 0:
        return ClassFunction(0, {(): 1})
    if not cm_concentration_check(n):
        raise ArithmeticError(
            f"homology below [{n}] is not concentrated in degree {n // 2}; "
            "the fixed-chain trace does not apply")
    sign_top = (-1) ** (n // 2)
    elements = _elements(n)
    values: dict[tuple, int] = {}
    for mu in partitions_of(n):
        w = cycle_type_representative(mu)
        fixed = [e for e in elements if apply_permutation(w, e) == e]
        # topped[j]: signed count of fixed chains whose top element is fixed[j].
        # Elements are sorted by size, so every f < fixed[j] comes before it.
        topped: list[int] = []
        for j, e in enumerate(fixed):
            topped.append(1 - sum(t for f, t in zip(fixed[:j], topped) if f < e))
        lefschetz = sum(topped) - 1  # the empty chain sits in degree -1
        values[mu] = sign_top * lefschetz
    return ClassFunction(n, values)


@lru_cache(maxsize=None)
def top_interval_representation(n: int) -> SchurVector:
    """Top homology below [n] decomposed into irreducibles."""
    return decompose(equivariant_top_character(n))


def whitney_homology(n: int, i: int) -> SchurVector:
    """Degree-i Whitney homology of the even-subset lattice of [n]: the top
    homology below a 2i-set, induced up from S_{2i} x S_{n-2i}."""
    if not (0 <= 2 * i <= n):
        raise ValueError("need 0 <= 2i <= n")
    return pieri_h(top_interval_representation(2 * i), n - 2 * i)


def poset_series_sides(N: int):
    """Both sides of the inverse-series identity for top interval homology,
    as maps degree -> SchurVector through degree N.

    Left: 1 + sum over even n of (-1)^{n/2} (top homology below [n]), with the
    homology characters computed by the order-complex route. Right: the series
    inverse of 1 + sum over even n >= 2 of h_n.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    lhs: dict[int, SchurVector] = {0: SchurVector.unit()}
    for n in range(2, N + 1, 2):
        lhs[n] = top_interval_representation(n).scale((-1) ** (n // 2))

    series = RepSeries(N, {(0, 0): SchurVector.unit()})
    for n in range(2, N + 1, 2):
        series.set_term(n, 0, SchurVector.h(n))
    inv = series.invert()
    rhs = {n: inv.term(n, 0) for n in range(0, N + 1) if not inv.term(n, 0).is_zero()}
    return lhs, rhs
