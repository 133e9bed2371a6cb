"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Criteria carry their stated runtime budgets, asserted as hard limits.
"""

import time
from collections import Counter
from math import comb

from coxtoric.combinatorics import all_chains, partitions_of, secant_numbers
from coxtoric.cohomology import (
    betti,
    cohomology_series_formula,
    cohomology_series_poset,
    poset_series_sides,
    rep_via_induction,
    rep_via_poset,
)
from coxtoric.cup_product import (
    branching_certificate,
    branching_infeasibility,
    cup_span_representation,
)
from coxtoric.poset_homology import homology_ranks, whitney_homology
from coxtoric.rep_ring import SchurVector, restrict
from coxtoric.wonderful_model import (
    ModelPoint,
    degeneration_witness,
    equivariance_report,
    euler_characteristic_cells,
    is_on_model,
    orbit_of,
    representative_point,
    torus_embedding,
)


def _report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {detail} ({elapsed:.2f}s)", flush=True)


def test_criterion_01_betti_table():
    t0 = time.perf_counter()
    A = secant_numbers(10)
    ok = all(
        betti(n, i) == (A[i] * comb(n, 2 * i) if 2 * i <= n else 0)
        for n in range(1, 11) for i in range(0, 6)
    )
    ok = ok and betti(4, 2) == 5
    ok = ok and all(betti(n, 1) == comb(n, 2) for n in range(1, 11))
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, "Betti table n<=10, i<=5, exact", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_series_identity():
    t0 = time.perf_counter()
    lhs = cohomology_series_poset(8)
    rhs = cohomology_series_formula(8)
    ok = lhs == rhs
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 120, "cohomology series identity degreewise to n=8", elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_03_two_route_representations():
    t0 = time.perf_counter()
    ok = all(
        rep_via_induction(n, i) == rep_via_poset(n, i)
        for n in range(0, 9) for i in range(0, n // 2 + 1) if 2 * i <= 6
    )
    elapsed = time.perf_counter() - t0
    _report(3, ok, "induction route == poset route, n<=8, 2i<=6", elapsed)
    assert ok


def test_criterion_04_poset_homology_ranks():
    t0 = time.perf_counter()
    expected = {0: 1, 2: 1, 4: 5, 6: 61, 8: 1385}
    ok = True
    for n, top in expected.items():
        ranks = homology_ranks(n)
        ok = ok and ranks == {n // 2: top}
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 120, "interval homology 1,1,5,61,1385 concentrated", elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_05_poset_series_identity():
    t0 = time.perf_counter()
    lhs, rhs = poset_series_sides(8)
    keys = set(lhs) | set(rhs)
    ok = all(lhs.get(k, SchurVector.zero(k)) == rhs.get(k, SchurVector.zero(k))
             for k in keys)
    elapsed = time.perf_counter() - t0
    _report(5, ok, "inverse-series identity with Hopf-trace characters to degree 8", elapsed)
    assert ok


def test_criterion_06_whitney_alternating_sum():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 6, 8):
        total = SchurVector.zero(n)
        for i in range(n // 2 + 1):
            total = total + whitney_homology(n, i).scale((-1) ** i)
        ok = ok and total.is_zero()
    elapsed = time.perf_counter() - t0
    _report(6, ok, "Whitney homology alternating sum vanishes, n = 4, 6, 8", elapsed)
    assert ok


def test_criterion_07_euler_characteristic():
    t0 = time.perf_counter()
    ok = all(
        euler_characteristic_cells(n)
        == sum((-1) ** i * betti(n, i) for i in range(n // 2 + 1))
        for n in range(1, 11)
    )
    ok = ok and [euler_characteristic_cells(n) for n in (2, 3, 4)] == [0, -2, 0]
    elapsed = time.perf_counter() - t0
    _report(7, ok, "cell-count Euler characteristic vs Betti numbers, n<=10", elapsed)
    assert ok


def test_criterion_08_model_geometry():
    t0 = time.perf_counter()
    # defining equations for n = 3: a1*b2 = a2*b1, a1*c3 = a3*c1, a2*d3 = a3*d2
    on = ModelPoint(3, {
        frozenset({1, 2, 3}): (0, 0, 1),
        frozenset({1, 2}): (1, 2),
        frozenset({1, 3}): (0, 1),
        frozenset({2, 3}): (0, 1),
    })
    off = ModelPoint(3, {
        frozenset({1, 2, 3}): (0, 0, 1),
        frozenset({1, 2}): (1, 2),
        frozenset({1, 3}): (1, 1),
        frozenset({2, 3}): (0, 1),
    })
    ok = is_on_model(on) and not is_on_model(off)

    # the four strata of the n = 3 stratification example
    def pt(top, b, c, d):
        return ModelPoint(3, {
            frozenset({1, 2, 3}): top, frozenset({1, 2}): b,
            frozenset({1, 3}): c, frozenset({2, 3}): d,
        })
    full = frozenset({1, 2, 3})
    strata = [
        (torus_embedding((1, 2, 3)), (full, frozenset())),
        (pt((0, 1, 2), (0, 1), (0, 1), (1, 2)), (full, frozenset({1}), frozenset())),
        (pt((0, 0, 1), (1, 2), (0, 1), (0, 1)),
         (full, frozenset({1, 2}), frozenset())),
        (pt((0, 0, 1), (0, 1), (0, 1), (0, 1)),
         (full, frozenset({1, 2}), frozenset({1}), frozenset())),
    ]
    for point, chain in strata:
        ok = ok and is_on_model(point) and orbit_of(point) == chain

    # degeneration for one representative of every chain of [4]
    chains = all_chains(4)
    ok = ok and len(chains) == 75
    for chain in chains:
        rep = representative_point(chain)
        witness = degeneration_witness(rep)
        ok = ok and witness["ok"] and orbit_of(rep) == chain

    # invariance under the torus and the symmetric group, 50 trials per n
    for n in range(2, 6):
        ok = ok and equivariance_report(n, 50, seed=0)["ok"]
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 30, "model equations, orbits, degenerations, actions", elapsed)
    assert ok
    assert elapsed < 30


def test_criterion_09_cup_products():
    t0 = time.perf_counter()
    ok = all(cup_span_representation(n).dimension() == 3 * comb(n, 4) for n in range(4, 11))
    expected = {
        4: {(2, 1, 1): 1},
        5: {(3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1},
    }
    for n in range(6, 9):
        expected[n] = {(n - 2, 1, 1): 1, (n - 3, 2, 1): 1,
                       (n - 3, 1, 1, 1): 1, (n - 4, 2, 1, 1): 1}
    for n in range(4, 9):
        # cross_check=True also runs the signed-permutation character route
        rep = cup_span_representation(n, cross_check=True)
        ok = ok and rep == SchurVector(n, expected[n])
    elapsed = time.perf_counter() - t0
    _report(9, ok, "cup span dimension 3*C(n,4) and representation, both routes", elapsed)
    assert ok


def _remove_corner(lam):
    """Branching rule from S_m to S_(m-1): Res V_lam is the multiplicity-free
    sum of the V_mu with mu obtained from lam by removing one corner box."""
    return [
        tuple(p for p in lam[:i] + (part - 1,) + lam[i + 1:] if p)
        for i, part in enumerate(lam)
        if i + 1 == len(lam) or part > lam[i + 1]
    ]


def _cup_span_by_hand(n):
    """pieri_h(s_(2,1,1), n - 4) written out: (2,1,1) plus a horizontal strip."""
    if n == 4:
        return {(2, 1, 1): 1}
    if n == 5:
        return {(3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}
    return {(n - 2, 1, 1): 1, (n - 3, 2, 1): 1,
            (n - 3, 1, 1, 1): 1, (n - 4, 2, 1, 1): 1}


def _support_filter(n, target):
    """Re-check an infeasible verdict without the search.

    Multiplicities are nonnegative, so only a lam of n + 1 whose restriction
    lies in the target's support can occur. A survivor that alone covers a
    target coordinate is forced to that coordinate's multiplicity. Returns
    the survivors, the forced multiplicities and the load they put on the
    target's coordinates.
    """
    survivors = [lam for lam in partitions_of(n + 1)
                 if set(_remove_corner(lam)) <= set(target)]
    forced = {}
    for lam in survivors:
        others = {mu for o in survivors if o != lam for mu in _remove_corner(o)}
        private = [mu for mu in _remove_corner(lam) if mu not in others]
        if private:
            forced[lam] = target[private[0]]
    load = Counter()
    for lam, m in forced.items():
        load.update(dict.fromkeys(_remove_corner(lam), m))
    return survivors, forced, load


def test_criterion_10_branching_infeasibility():
    t0 = time.perf_counter()
    statuses = {n: branching_infeasibility(n) for n in (4, 5, 6, 7)}
    sanity = branching_certificate(restrict(SchurVector(6, {(6,): 1})))
    sanity_ok = (sanity["status"] == "feasible"
                 and sanity["witness"] == [{"partition": [6], "multiplicity": 1}])
    targets_ok = all(_cup_span_by_hand(n) == cup_span_representation(n).coeffs
                     for n in statuses)
    infeasible_ok = all(statuses[n]["status"] == "infeasible" for n in (4, 6, 7))

    # n = 4: no partition of 5 restricts inside the support of (2,1,1).
    recheck_ok = _support_filter(4, _cup_span_by_hand(4))[0] == []
    # n = 6, 7: two survivors, each forced to 1 by a coordinate only it
    # covers; together they put 2 on (n-3,1,1,1), where the target has 1.
    for n in (6, 7):
        survivors, forced, load = _support_filter(n, _cup_span_by_hand(n))
        pair = {(n - 2, 1, 1, 1): 1, (n - 3, 2, 1, 1): 1}
        recheck_ok = (recheck_ok and sorted(survivors) == sorted(pair)
                      and forced == pair and load[(n - 3, 1, 1, 1)] == 2
                      and _cup_span_by_hand(n)[(n - 3, 1, 1, 1)] == 1)

    # n = 5: the witness V_(3,1,1,1) + V_(2,2,2) restricts to the cup span.
    witness = statuses[5]["witness"] or []
    rebuilt = Counter()
    for entry in witness:
        rebuilt.update(dict.fromkeys(_remove_corner(tuple(entry["partition"])),
                                     entry["multiplicity"]))
    witness_ok = (statuses[5]["status"] == "feasible"
                  and dict(rebuilt) == _cup_span_by_hand(5))

    ok = sanity_ok and targets_ok and infeasible_ok and recheck_ok and witness_ok
    elapsed = time.perf_counter() - t0
    detail = ("branching infeasible for n = 4,6,7 (re-checked by support filter), "
              "feasible at n = 5 with witness (3,1,1,1)+(2,2,2), "
              "plus feasible sanity witness")
    _report(10, ok and elapsed < 60, detail, elapsed)
    assert elapsed < 60
    assert sanity_ok
    assert targets_ok
    assert infeasible_ok, {n: c["status"] for n, c in statuses.items()}
    assert recheck_ok
    assert witness_ok, statuses[5]
