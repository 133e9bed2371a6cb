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
decompositions, so this is as strong as comparing decompositions. At every
n, traced or not, the Pieri route's dimension must be 3 * C(n, 4); its
dimension is what cup-dim prints. Below n = 4 there is no 4-subset, and the
span is the zero module.

The trace is summed by kind of stable 4-set. A pairing fixed by w lies on a
4-set that w maps to itself, a union of cycles of w. Its kind is the cycle
type those cycles make, a partition of 4. Take w to be
cycle_type_representative(mu), whose cycles are runs of consecutive integers
in decreasing length, each run shifted by one. Then every stable 4-set of one
kind carries the same order pattern: w restricted to it, relabelled in
increasing order by 1..4, is the S_4 representative of that kind.
permute_basis_key and cup_reduce compare indices only by their order, so the
signed trace on the three pairings of such a set equals tau(kind), the trace
of the S_4 representative; tau is the S_4 character of V_(2,1,1). Summing
tau(kind) over the stable 4-sets is rep_ring.induce_trivial of tau up to S_n.
Each tau(kind) is computed once, through permute_basis_key on the pairings of
{1, 2, 3, 4}; nothing in this route uses Pieri.

The branching search seeks an S_(n+1)-module restricting to a target.
Restrictions are multiplicity-free and multiplicities nonnegative, so a
partition of n+1 with positive multiplicity restricts inside what is left of
the target. Let mu be the largest constituent left with positive
multiplicity, in tuple order (the order partitions_of lists first). Only two
partitions of n+1 can then have positive multiplicity and restrict onto mu:
mu with a new row of length 1, and mu with its last row one box longer, a
partition only when mu has one row or its last row is shorter than the one
above. Proof: let lam be mu plus a box in row r. Had lam a removable corner
in a row below r, removing it would give a constituent nu of Res lam that
agrees with mu above row r and is longer in row r, so nu > mu, and nu would
need a positive residual, against the choice of mu. The last row of mu is
such a corner unless r is that row or a new one. So mu's multiplicity is
split between the two, their restrictions are subtracted, a negative residual
is pruned, and the search recurses; every other constituent of either
restriction is smaller than mu, so each level zeroes one constituent for good.
When mu is empty (n = 0) it has no last row, and (1) is the one candidate.
A witness the search finds is re-checked on the character side, by
Murnaghan-Nakayama values at cycle types with one fixed point added, so a
fault in the corner removal cannot pass as feasible.
"""

from __future__ import annotations

from math import comb

from .combinatorics import partitions_of, cycle_type_representative
from .rep_ring import (ClassFunction, SchurVector, decompose, induce_trivial, pieri_h, restrict,
                       to_class_function)


def degree_one_class(i: int, j: int) -> tuple[tuple[int, int], int]:
    """Normal form of nu(i, j): the sorted index pair and a sign. The indices
    must be distinct positive ints; a bool or any other type raises
    ValueError."""
    if type(i) is not int or type(j) is not int or i == j or i < 1 or j < 1:
        raise ValueError(f"indices must be distinct positive integers, not {i!r}, {j!r}")
    return ((i, j), 1) if i < j else ((j, i), -1)


def cup_reduce(first, second):
    """Product of two degree-one classes in normal form.

    Each factor is an index pair, read by degree_one_class; anything else
    raises ValueError. Returns a dict mapping a basis key ((a,b),(c,d)) with
    a<b, c<d, a<c to the int coefficient 1 or -1; shared indices (squares
    included) give the empty dict, and swapping the two factors into
    canonical order costs a sign.
    """
    for factor in (first, second):
        if not isinstance(factor, (tuple, list)) or len(factor) != 2:
            raise ValueError(f"a degree-one class is an index pair, not {factor!r}")
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


def permute_basis_key(w, key) -> tuple[tuple, int]:
    """Action on a product basis element; the result is again a basis element
    together with the accumulated sign (factor signs and anticommutation)."""
    (a, b), (c, d) = key
    [(new_key, sign)] = cup_reduce((w[a - 1], w[b - 1]), (w[c - 1], w[d - 1])).items()
    return new_key, sign


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
    """Signed trace on the pairing basis: the kind traces, induced up over the
    w-stable 4-sets (see the module docstring)."""
    return induce_trivial(ClassFunction(4, {k: _kind_trace(k) for k in partitions_of(4)}), n)


def cup_span_representation(n: int, cross_check: bool = True) -> SchurVector:
    """The cup span as a representation: the pairing module of a 4-subset
    induced up with a trivial factor, evaluated by Pieri; for 0 <= n < 4,
    where no 4-subset exists, the zero module.

    At every n its dimension must be 3 * C(n, 4), the size of the pairing
    basis, which no strip rule decides. With cross_check, the
    signed-permutation character of the action on the pairing basis must
    equal the character of the Pieri route; below n = 4 both are 0.
    """
    pieri_route = (pieri_h(SchurVector(4, {(2, 1, 1): 1}), n - 4) if n >= 4
                   else SchurVector.zero(n))  # SchurVector refuses a negative n
    if pieri_route.dimension() != 3 * comb(n, 4):
        raise ArithmeticError(f"Pieri route {pieri_route!r} at n={n} has dimension "
                              f"{pieri_route.dimension()}, not 3 * C({n}, 4) = {3 * comb(n, 4)}")
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

    Complete depth-first search by the rule of the module docstring: each
    level takes the largest constituent mu left, tries every split of its
    multiplicity between mu with a new row of length 1 and mu with its last
    row one box longer, and prunes a split that leaves a negative residual.
    No other partition can restrict onto mu, so an infeasible answer is
    exhaustive, not heuristic; a feasible one is re-checked on characters,
    and ArithmeticError is raised if it fails there.
    """
    n = target.n
    if not target.is_integral() or any(c < 0 for c in target.coeffs.values()):
        raise ValueError("target must have nonnegative integer multiplicities")

    def search(residual):
        if not residual:
            return {}
        mu = max(residual)
        # mu's last row one box longer, when that is a partition
        longer = mu[:-1] + (mu[-1] + 1,) if mu and (len(mu) == 1 or mu[-1] < mu[-2]) else None
        m = residual[mu]
        for c in range(m, -1, -1) if longer else (m,):
            chosen = {lam: k for lam, k in ((mu + (1,), c), (longer, m - c)) if k}
            drop = restrict(SchurVector(n + 1, chosen)).coeffs
            if all(residual.get(nu, 0) >= k for nu, k in drop.items()):
                found = search({nu: v - drop.get(nu, 0) for nu, v in residual.items()
                                if v != drop.get(nu, 0)})
                if found is not None:
                    return {**chosen, **found}
        return None

    witness = search({mu: int(c) for mu, c in target.coeffs.items()})
    if witness is None:
        return {"status": "infeasible", "witness": None}
    # Re-checked on characters, with no corner removal: chi_lam restricted to
    # S_n takes at mu the value of chi_lam at mu with one fixed point added.
    lifted = to_class_function(SchurVector._of(n + 1, witness))
    restricted = ClassFunction._of(n, {mu: lifted(mu + (1,)) for mu in partitions_of(n)})
    if restricted != to_class_function(target):
        raise ArithmeticError(f"the witness {witness} does not restrict to the target "
                              "on characters")
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
