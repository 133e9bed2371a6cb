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
Hopf trace: for one permutation w per cycle type, the alternating sum of
counts of setwise-fixed chains equals the alternating sum of homology traces.
A chain fixed setwise is fixed blockwise, because its members have pairwise
distinct sizes, so the chain count really is the trace on the chain group.
The fixed chains are the chains of the subposet of w-fixed elements, and
their signed count is summed by top element: a chain topped by e is e alone
or a chain topped by some fixed f < e with e added one degree up.

That subposet is read by orbit class, never element by element. Let w have a
odd and b even cycles. A w-fixed set is a union of cycles, and its size is
even exactly when it holds an even number of the odd cycles; its class (p, q)
counts the odd and the even cycles it holds. The fixed sets below one of
class (p, q) are the unions of some of its own cycles, so C(p, r) * C(q, s)
of them have class (r, s), whatever the set. The signed count topped(p, q) of
the fixed chains a set tops therefore depends on its class only, and
topped(p, q) = 1 - sum over the classes (r, s) below of
C(p, r) * C(q, s) * topped(r, s). The trace weights each proper class by its
C(a, p) * C(b, q) sets and subtracts the empty chain, in degree -1: it runs
over (a/2 + 1)(b + 1) classes instead of 2^(n-1) sets (Stanley, J. Combin.
Theory Ser. A 32, 1982).

The trace is the alternating sum of the homology characters, so it is the top
character only when the homology is concentrated in the top degree, and its
value at the identity is then the top rank. One comparison checks both, on
every call: the ranks from the matching must equal {i: trace at the
identity}. The two sides share no step.

Whitney homology induces the top character up on the character side
(rep_ring.induce_trivial) and decomposes the result. The module takes only
character-side names from rep_ring, so no Pieri rule and no series inverse is
used here; both series identities the verify commands check live in
cohomology.

The one size limit is the interval's, MAX_BRUTE_FORCE_BOUND, checked by
IntervalComplex before any chain is built. Every entry point reaches it
before other work: equivariant_top_character asks for the ranks before it
runs the class trace, which walks every cycle type of S_n, and
top_interval_representation, whitney_homology and cohomology's poset route
go through it.

Two results are cached because commands read them again: the homology ranks
(read by the top character's comparison, then again by poset-homology for
its ranks and its "concentrated" field) and the top character (re-read by
rep_via_poset for every n of the poset-route series); the complex is not
kept.
"""

from __future__ import annotations

import gc
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import lt

from .combinatorics import partitions_of
# Unused here; perfbench/tracer.py SPANS and perfbench/check_tracer.py name it.
from .linalg import sparse_rank
from .rep_ring import ClassFunction, SchurVector, decompose, induce_trivial

# Largest interval size the brute-force route is allowed to reach: the size-10
# matching and its check take about 1.6 s and 76 MB, size 12 has 7.48 M top
# chains.
MAX_BRUTE_FORCE_BOUND = 10


class IntervalComplex:
    """Order complex of the open interval between {} and a set of even size."""

    def __init__(self, top_size: int):
        if top_size < 2 or top_size % 2 or top_size > MAX_BRUTE_FORCE_BOUND:
            raise ValueError("top size must be even and in the brute-force "
                             f"range 2..{MAX_BRUTE_FORCE_BOUND}")
        self.top_size = top_size
        # Even subsets strictly between {} and [top_size], by size, then lex.
        self.elements = elements = [frozenset(sub) for size in range(2, top_size - 1, 2)
                                    for sub in combinations(range(1, top_size + 1), size)]
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
    critical counts of `morse_certificate`, re-checked on every call; any
    other size that is odd, negative or above MAX_BRUTE_FORCE_BOUND is refused
    by IntervalComplex before any chain is built.
    """
    if interval_size == 0:
        return {0: 1}
    enabled = gc.isenabled()
    gc.disable()  # the chains form no reference cycles; a collection only rescans them
    try:
        return check_morse_certificate(interval_size, morse_certificate(interval_size))
    finally:
        if enabled:
            gc.enable()


def _hopf_trace(n: int) -> ClassFunction:
    """The Hopf trace below [n], n even and positive, by orbit class (see the
    module docstring), not yet compared with the ranks.
    C(p, r) is 0 for r > p, so a sum over the classes met so far is a sum
    over the classes below."""
    values = {}
    for mu in partitions_of(n):
        a = sum(part % 2 for part in mu)
        b = len(mu) - a
        topped: dict[tuple[int, int], int] = {}
        for p in range(0, a + 1, 2):  # every class below (p, q) comes before it
            for q in range(b + 1):
                if p + q and (p, q) != (a, b):
                    topped[p, q] = 1 - sum(comb(p, r) * comb(q, s) * t
                                           for (r, s), t in topped.items())
        lefschetz = sum(comb(a, p) * comb(b, q) * t for (p, q), t in topped.items()) - 1
        values[mu] = (-1) ** (n // 2) * lefschetz
    return ClassFunction._of(n, values)


@lru_cache(maxsize=None)
def equivariant_top_character(n: int) -> ClassFunction:
    """Character of S_n on the top homology of the interval below [n].

    The Hopf trace by orbit class is the alternating sum of the homology
    characters, so it is the top character when the homology is concentrated
    in degree n/2, and its value at the identity is then the rank there. One
    comparison checks both: the ranks from the matching must be exactly
    {n/2: trace at the identity}. A failure aborts loudly rather than
    returning a wrong character. The ranks come first, so a size the interval
    gate refuses runs no class trace.
    """
    if n == 0:
        return ClassFunction._of(0, {(): 1})
    ranks = homology_ranks(n)
    char = _hopf_trace(n)
    at_identity = char((1,) * n)
    if ranks != {n // 2: at_identity}:
        raise ArithmeticError(
            f"the trace at the identity, {at_identity}, is not the rank {ranks.get(n // 2, 0)} "
            f"in degree {n // 2} below [{n}], or the homology is not concentrated there: "
            f"ranks {ranks}")
    return char


def top_interval_representation(n: int) -> SchurVector:
    """Top homology below [n] decomposed into irreducibles."""
    return decompose(equivariant_top_character(n))


def whitney_homology(n: int, i: int) -> SchurVector:
    """Degree-i Whitney homology of the even-subset lattice of [n]: the top
    homology below a 2i-set, induced up from S_{2i} x S_{n-2i} on the
    character side, then decomposed."""
    if not (0 <= 2 * i <= n):
        raise ValueError("need 0 <= 2i <= n")
    return decompose(induce_trivial(equivariant_top_character(2 * i), n))
