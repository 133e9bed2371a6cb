"""Degree-one cohomology classes indexed by ordered pairs, and the subspace of
degree two spanned by their cup products.

A degree-one class nu(i, j) is skew in its indices; products of two classes
vanish whenever the index pairs meet. `cup_reduce` *assumes*, and does not
compute, that products over disjoint pairs are independent, so a basis of the
cup span consists of the three pairings of each 4-subset. Degree-one classes
anticommute, which the normal form tracks: reordering two factors flips the
sign, and `cup_reduce` is the one place that orders two pairs.

The cup span is evaluated once, by Pieri induction, and checked by one
independent route: the signed trace of each permutation w on the pairing
basis. The routes are compared as characters; characters determine
decompositions, so this is as strong as comparing decompositions.

The trace is summed by kind of stable 4-set. A pairing fixed by w lies on a
4-set that w maps to itself, a union of cycles of w. Its cycles make one of
five kinds: 4, 3+1, 2+2, 2+1+1 or 1+1+1+1. Take w to be
cycle_type_representative(mu), whose cycles are runs of consecutive integers
in decreasing length, each run shifted by one. Then every stable 4-set of one
kind carries the same order pattern: w restricted to it, relabelled in
increasing order by 1..4, is the S_4 representative of that kind.
permute_basis_key and cup_reduce compare indices only by their order, so the
signed trace on the three pairings of such a set equals tau_kind, the trace of
the S_4 representative. Hence, with m_j the number of j-cycles of mu,

    trace(mu) = m4 tau_4 + m3 m1 tau_31 + C(m2, 2) tau_22
                + m2 C(m1, 2) tau_211 + C(m1, 4) tau_1111.

Each tau_kind is computed once, through permute_basis_key on the pairings of
{1, 2, 3, 4}; nothing in this route uses Pieri.

The branching search seeks an S_(n+1)-module restricting to a target.
Restrictions are multiplicity-free and multiplicities nonnegative, so a
partition of n+1 with positive multiplicity restricts inside the target's
support; every other partition is forced to 0 and left out of the search.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .combinatorics import partitions_of, cycle_type_representative
from .rep_ring import (ClassFunction, SchurVector, decompose, irrep_dimension,
                       pieri_h, restrict, to_class_function)


def degree_one_class(i: int, j: int) -> tuple[tuple[int, int], int]:
    """Normal form of nu(i, j): the sorted index pair and a sign."""
    if i == j or i < 1 or j < 1:
        raise ValueError("indices must be distinct positive integers")
    return ((i, j), 1) if i < j else ((j, i), -1)


def cup_reduce(first, second):
    """Product of two degree-one classes in normal form.

    Returns a dict mapping a basis key ((a,b),(c,d)) with a<b, c<d, a<c to
    the int coefficient 1 or -1; shared indices (squares included) give the
    empty dict, and swapping the two factors into canonical order costs a sign.
    """
    (p1, s1) = degree_one_class(*first)
    (p2, s2) = degree_one_class(*second)
    if set(p1) & set(p2):
        return {}
    sign = s1 * s2
    if p1 > p2:
        p1, p2 = p2, p1
        sign = -sign
    return {(p1, p2): sign}


def _pairings(i: int, j: int, k: int, l: int) -> tuple:
    """The three pairings of the 4-set i < j < k < l, as basis keys."""
    return (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))


def basis_keys(n: int) -> list[tuple]:
    """The three disjoint pairings of every 4-subset of [n]."""
    return [key for four in combinations(range(1, n + 1), 4) for key in _pairings(*four)]


def cup_span_dimension(n: int) -> int:
    """Dimension of the span of all products of degree-one classes.

    Every reduced product is, up to sign, one of the canonical pairing basis
    elements, and all of them occur; the count is verified by actually
    reducing every product of two classes. The pairings of [n] number
    3 * C(n, 4), so reduced keys that are all well-formed pairings and are
    that many are exactly the pairing basis.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    pairs = list(combinations(range(1, n + 1), 2))
    seen = {key for a in pairs for b in pairs for key in cup_reduce(a, b)}
    if len(seen) != 3 * comb(n, 4) or not all(_is_pairing(key, n) for key in seen):
        raise ArithmeticError("reduced products do not match the pairing basis")
    return len(seen)


def _is_pairing(key, n: int) -> bool:
    """Whether key is ((a, b), (c, d)) with a < b, c < d, a < c on four
    distinct indices in [n]."""
    (a, b), (c, d) = key
    return 0 < a < b <= n and a < c < d <= n and b not in (c, d)


def permute_basis_key(w, key) -> tuple[tuple, int]:
    """Action on a product basis element; the result is again a basis element
    together with the accumulated sign (factor signs and anticommutation)."""
    (a, b), (c, d) = key
    [(new_key, sign)] = cup_reduce((w[a - 1], w[b - 1]), (w[c - 1], w[d - 1])).items()
    return new_key, sign


FOUR_SET_KINDS = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def four_set_kind_counts(mu) -> tuple[int, ...]:
    """How many w-stable 4-sets of each kind in FOUR_SET_KINDS a permutation
    w of cycle type mu has: m4, m3 m1, C(m2, 2), m2 C(m1, 2), C(m1, 4)."""
    m = [mu.count(j) for j in range(5)]
    return (m[4], m[3] * m[1], comb(m[2], 2), m[2] * comb(m[1], 2), comb(m[1], 4))


def _kind_trace(kind) -> int:
    """Signed trace of the S_4 representative of kind on the pairings of
    {1, 2, 3, 4}."""
    w = cycle_type_representative(kind)
    trace = 0
    for key in _pairings(1, 2, 3, 4):
        image, sign = permute_basis_key(w, key)
        trace += sign if image == key else 0
    return trace


def _signed_permutation_character(n: int) -> ClassFunction:
    """Signed trace on the pairing basis, summed by kind of w-stable 4-set
    (see the module docstring)."""
    taus = [_kind_trace(kind) for kind in FOUR_SET_KINDS]
    return ClassFunction(n, {
        mu: sum(count * tau for count, tau in zip(four_set_kind_counts(mu), taus))
        for mu in partitions_of(n)})


def cup_span_representation(n: int, cross_check: bool = True) -> SchurVector:
    """The cup span as a representation: the pairing module of a 4-subset
    induced up with a trivial factor, evaluated by Pieri.

    With cross_check, the signed-permutation character of the action on the
    pairing basis must equal the character of the Pieri route.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    pieri_route = pieri_h(SchurVector(4, {(2, 1, 1): 1}), n - 4)
    if cross_check:
        char = _signed_permutation_character(n)
        if char != to_class_function(pieri_route):
            raise ArithmeticError(
                f"character route {decompose(char)!r} disagrees with "
                f"Pieri route {pieri_route!r} at n={n}")
    return pieri_route


def branching_certificate(target: SchurVector) -> dict:
    """Search for nonnegative multiplicities c over partitions of n+1 with
    sum of c * restriction equal to the target.

    Complete depth-first search over the partitions that restrict inside the
    target's support, in decreasing dimension order: each multiplicity is
    bounded by the remaining target, and a branch is pruned when some
    remaining coordinate can no longer be covered. An infeasible answer is
    therefore exhaustive, not heuristic.
    """
    n = target.n
    if not target.is_integral() or any(c < 0 for c in target.coeffs.values()):
        raise ValueError("target must have nonnegative integer multiplicities")
    restrictions = ((lam, restrict(SchurVector(n + 1, {lam: 1})).coeffs)
                    for lam in sorted(partitions_of(n + 1), key=irrep_dimension, reverse=True))
    candidates = [(lam, res) for lam, res in restrictions if res.keys() <= target.coeffs.keys()]

    def search(idx, residual):
        live = {mu for mu, c in residual.items() if c}
        if not live:
            return {}
        if not live <= {mu for _, res in candidates[idx:] for mu in res}:
            return None
        lam, res = candidates[idx]
        for c in range(min(residual[mu] for mu in res), -1, -1):
            found = search(idx + 1, {mu: v - c if mu in res else v
                                     for mu, v in residual.items()})
            if found is not None:
                return {lam: c, **found} if c else found
        return None

    witness = search(0, {mu: int(c) for mu, c in target.coeffs.items()})
    if witness is None:
        return {"status": "infeasible", "witness": None}
    entries = sorted(witness.items(), reverse=True)
    return {"status": "feasible",
            "witness": [{"partition": list(lam), "multiplicity": c} for lam, c in entries]}


def branching_infeasibility(n: int) -> dict:
    """The complete search's verdict on whether the cup span at n is the
    restriction of an S_(n+1)-module.

    Infeasible at n = 4 and at every n >= 6 checked; feasible at n = 5, where
    Res(V_(3,1,1,1) + V_(2,2,2)) = V_(3,1,1) + V_(2,2,1) + V_(2,1,1,1) is
    exactly the cup span.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    cert = branching_certificate(cup_span_representation(n))
    cert["n"] = n
    return cert
