"""Homology of open intervals in the lattice of even-size subsets of [n].

The order complex of the open interval below a set of size 2i includes the
empty chain in degree -1, so its homology is reduced; degrees are reported as
m = (complex degree) + 2, which makes the bottom interval sit in m = 0 and the
interval below an atom in m = 1. All interval homologies here are concentrated
in top degree m = i, which is verified computationally, never assumed.

Chains are built level by level: a chain of degree d + 1 is a chain of degree
d with one element above its top appended. The homology is read off a
discrete Morse matching (Forman 1998), the iterated element matching of
Jonsson (Simplicial Complexes of Graphs, LNM 1928): for each element x in
turn, a chain without x is paired with the chain that adds x, when both are
still unpaired. A separate check that does not rebuild the complex re-verifies
the matching on every call: each pair is a chain and one of its faces, no
chain is in two pairs, there is no gradient cycle, and the unpaired (critical)
chains lie in one degree. Then the homology has rank equal to the critical
count in that degree and vanishes elsewhere. The critical counts are
1, 5, 61, 1385, 50521 at sizes 2..10, all in the top degree.

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

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import lt

from .combinatorics import (
    apply_permutation,
    cycle_type_representative,
    partitions_of,
)
# Unused here; perfbench/tracer.py SPANS and perfbench/check_tracer.py name it.
from .linalg import sparse_rank
from .rep_ring import (
    ClassFunction,
    RepSeries,
    SchurVector,
    decompose,
    pieri_h,
)

# Largest interval size the brute-force route is allowed to reach: the size-10
# matching and its check take about 2 s and 76 MB, size 12 has 7.48 M top
# chains.
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

    # The tests' rank oracle; perfbench/tracer.py SPANS names it.
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


def morse_certificate(top_size: int) -> list[tuple[tuple, tuple]]:
    """The iterated element matching on the chains below a top_size-set.

    In the round for element x, taken in `elements` order, a chain without x
    is paired with the chain that adds x when that is a chain too and neither
    was paired in an earlier round. Returns (chain, chain + x) pairs; the
    chains in no pair are the critical ones.
    """
    cx = build_interval_complex(top_size)
    containing: dict[frozenset, list[tuple]] = {x: [] for x in cx.elements}
    for chains in cx.chains.values():
        for chain in chains:
            for x in chain:
                containing[x].append(chain)
    unpaired = {chain for chains in cx.chains.values() for chain in chains}
    pairs = []
    for x in cx.elements:
        # Each chain has one candidate partner per round, so the order in
        # which a round visits its chains does not matter.
        for upper in containing[x]:
            if upper in unpaired:
                j = upper.index(x)
                lower = upper[:j] + upper[j + 1:]
                if lower in unpaired:
                    unpaired.remove(lower)
                    unpaired.remove(upper)
                    pairs.append((lower, upper))
    return pairs


def _chain_counts(top_size: int) -> dict[int, int]:
    """Chains of each degree d below a top_size-set, counted as the ordered
    partitions of [top_size] into d + 2 blocks of positive even size."""
    ways = {m: int(m == 0) for m in range(0, top_size + 1, 2)}
    counts = {}
    for blocks in range(1, top_size // 2 + 1):
        ways = {m: sum(comb(m, j) * ways[m - j] for j in range(2, m + 1, 2))
                for m in ways}
        counts[blocks - 2] = ways[top_size]
    return counts


def check_morse_certificate(top_size: int, pairs) -> dict[int, int]:
    """Re-check a matching on the chains below a top_size-set without
    building the complex, and return the homology it certifies.

    The pairs must each be a chain and one of its faces, share no chain, and
    admit no gradient cycle; the chains in no pair, counted against
    `_chain_counts`, must lie in one degree d. By discrete Morse theory the
    homology is then {d + 2: critical count}. Raises ArithmeticError otherwise.
    """
    full = frozenset(range(1, top_size + 1))
    if not all(e and len(e) % 2 == 0 and e < full for e in {e for _, t in pairs for e in t}):
        raise ArithmeticError("a paired chain has an element that is not an even proper subset")
    paired: set[tuple] = set()
    other_faces: dict[int, dict[tuple, list[tuple]]] = {}
    for lower, upper in pairs:
        faces = [upper[:j] + upper[j + 1:] for j in range(len(upper))]
        if lower not in faces or not all(map(lt, upper, upper[1:])):
            raise ArithmeticError(f"pair {lower} / {upper} is not a chain and a face")
        if lower in paired or upper in paired:
            raise ArithmeticError(f"a chain of the pair {lower} / {upper} is in two pairs")
        paired.add(lower)
        paired.add(upper)
        faces.remove(lower)
        other_faces.setdefault(len(lower), {})[lower] = faces
    for faces_of in other_faces.values():
        # Kahn's algorithm, one degree at a time (a gradient path alternates
        # between degrees d and d + 1 only): the pair (s, t) leads to each
        # pair whose lower chain is a face of t other than s.
        succ = {s: [f for f in fs if f in faces_of] for s, fs in faces_of.items()}
        indegree = Counter(f for fs in succ.values() for f in fs)
        order = [s for s in succ if s not in indegree]
        for s in order:
            for f in succ[s]:
                indegree[f] -= 1
                if not indegree[f]:
                    order.append(f)
        if len(order) < len(succ):
            raise ArithmeticError("the matching has a gradient cycle")
    paired_per_length = Counter(map(len, paired))
    critical = {d + 2: k - paired_per_length[d + 1]
                for d, k in _chain_counts(top_size).items() if k != paired_per_length[d + 1]}
    if len(critical) > 1:
        raise ArithmeticError(f"critical chains in more than one degree: {critical}")
    return critical


@lru_cache(maxsize=None)
def homology_ranks(interval_size: int) -> dict[int, int]:
    """Ranks of H_m of the open interval below a set of the given even size.

    Keys are the shifted degrees m = complex degree + 2; only nonzero ranks
    appear. The empty interval is {0: 1} by convention. The ranks are the
    critical counts of `morse_certificate`, re-checked on every call.
    """
    if interval_size < 0 or interval_size % 2:
        raise ValueError("interval size must be even and nonnegative")
    if interval_size == 0:
        return {0: 1}
    return check_morse_certificate(interval_size, morse_certificate(interval_size))


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
        vec = top_interval_representation(n)
        lhs[n] = -vec if n // 2 % 2 else vec

    series = RepSeries(N, {(0, 0): SchurVector.unit()})
    for n in range(2, N + 1, 2):
        series.set_term(n, 0, SchurVector.h(n))
    inv = series.invert()
    rhs = {n: inv.term(n, 0) for n in range(0, N + 1) if not inv.term(n, 0).is_zero()}
    return lhs, rhs
