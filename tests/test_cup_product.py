import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from coxtoric import cup_product
from coxtoric.cup_product import (
    FOUR_SET_KINDS,
    basis_keys,
    branching_certificate,
    branching_infeasibility,
    cup_reduce,
    cup_span_dimension,
    cup_span_representation,
    degree_one_class,
    four_set_kind_counts,
    permute_basis_key,
    _kind_trace,
    _signed_permutation_character,
)
from coxtoric.combinatorics import cycle_type_representative, partitions_of
from coxtoric.rep_ring import ClassFunction, SchurVector, restrict, to_class_function

from oracles import act_on_degree_two, permute_degree_one

S = SchurVector


def test_degree_one_normal_form():
    assert degree_one_class(1, 2) == ((1, 2), 1)
    assert degree_one_class(2, 1) == ((1, 2), -1)
    with pytest.raises(ValueError):
        degree_one_class(3, 3)


def test_cup_reduce():
    assert cup_reduce((2, 1), (3, 4)) == {((1, 2), (3, 4)): Fraction(-1)}
    assert cup_reduce((1, 2), (1, 3)) == {}
    assert cup_reduce((1, 2), (1, 2)) == {}
    # anticommutation: reversing the factors flips the sign
    assert cup_reduce((3, 4), (1, 2)) == {((1, 2), (3, 4)): Fraction(-1)}
    assert cup_reduce((1, 2), (3, 4)) == {((1, 2), (3, 4)): Fraction(1)}


def test_span_dimension():
    assert cup_span_dimension(3) == 0
    assert cup_span_dimension(4) == 3
    assert cup_span_dimension(6) == 45
    for n in range(4, 11):
        assert cup_span_dimension(n) == 3 * comb(n, 4)
        assert len(basis_keys(n)) == 3 * comb(n, 4)


@pytest.mark.parametrize("bad", [
    {},                    # ((1,2),(3,4)) never occurs: one key short
    {((2, 1), (3, 4)): 1},  # a malformed key in its place: the count still matches
])
def test_span_dimension_rejects_wrong_reduction(monkeypatch, bad):
    honest = cup_product.cup_reduce

    def reduce(first, second):
        out = honest(first, second)
        return bad if ((1, 2), (3, 4)) in out else out

    monkeypatch.setattr(cup_product, "cup_reduce", reduce)
    with pytest.raises(ArithmeticError, match="pairing basis"):
        cup_span_dimension(6)


def test_representation_verbatim():
    assert cup_span_representation(4) == S(4, {(2, 1, 1): 1})
    assert cup_span_representation(5) == S(
        5, {(3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1})
    assert cup_span_representation(6) == S(
        6, {(4, 1, 1): 1, (3, 2, 1): 1, (3, 1, 1, 1): 1, (2, 2, 1, 1): 1})


def test_representation_two_routes_and_dimensions():
    for n in range(4, 9):
        rep = cup_span_representation(n, cross_check=True)  # raises on mismatch
        assert rep.dimension() == 3 * comb(n, 4)
    for n in (9, 10):
        assert cup_span_representation(n, cross_check=False).dimension() == 3 * comb(n, 4)


def test_action_on_classes():
    assert permute_degree_one((1, 2, 3), (1, 2)) == ((1, 2), 1)
    assert permute_degree_one((2, 1, 3), (1, 2)) == ((1, 2), -1)


def test_action_permutes_basis_up_to_sign():
    from itertools import permutations
    keys = basis_keys(4)
    for w in permutations(range(1, 5)):
        image = {}
        for key in keys:
            new_key, sign = permute_basis_key(w, key)
            assert sign in (1, -1)
            image[key] = new_key
        assert sorted(image.values()) == sorted(keys)


def test_action_commutes_with_reduction():
    """Relabelling then reducing equals reducing then acting."""
    rng = random.Random(4)
    for n in (4, 5, 6):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for _ in range(30):
            a = rng.choice(pairs)
            b = rng.choice(pairs)
            w = tuple(rng.sample(range(1, n + 1), n))
            direct = cup_reduce((w[a[0] - 1], w[a[1] - 1]), (w[b[0] - 1], w[b[1] - 1]))
            assert direct == act_on_degree_two(w, cup_reduce(a, b))


def test_branching_sanity_witness():
    cert = branching_certificate(restrict(S(6, {(6,): 1})))
    assert cert["status"] == "feasible"
    assert cert["witness"] == [{"partition": [6], "multiplicity": 1}]


@pytest.mark.parametrize("n", [4, 6, 7])
def test_branching_infeasible(n):
    assert branching_infeasibility(n)["status"] == "infeasible"


def test_branching_feasible_exception_at_five():
    """The restriction obstruction genuinely vanishes at n = 5: removing one
    corner box from (3,1,1,1) gives (2,1,1,1) and (3,1,1), and from (2,2,2)
    gives (2,2,1), which together are exactly the cup span."""
    cert = branching_infeasibility(5)
    assert cert["status"] == "feasible"
    rebuilt = S.zero(5)
    for entry in cert["witness"]:
        lam = tuple(entry["partition"])
        rebuilt = rebuilt + restrict(S(6, {lam: 1})).scale(entry["multiplicity"])
    assert rebuilt == cup_span_representation(5)


def test_branching_rejects_unreachable_target():
    # every partition of 5 whose restriction contains (3,1) restricts with
    # an extra summand, so a lone copy of (3,1) cannot be reached
    cert = branching_certificate(S(4, {(3, 1): 1}))
    assert cert["status"] == "infeasible"


def test_branching_witness_reconstructs_general_target():
    target = restrict(S(5, {(4, 1): 1, (3, 2): 2}))
    cert = branching_certificate(target)
    assert cert["status"] == "feasible"
    rebuilt = S.zero(4)
    for entry in cert["witness"]:
        lam = tuple(entry["partition"])
        rebuilt = rebuilt + restrict(S(5, {lam: 1})).scale(entry["multiplicity"])
    assert rebuilt == target


def test_branching_validates_input():
    with pytest.raises(ValueError):
        branching_certificate(S(4, {(2, 2): Fraction(1, 2)}))
    with pytest.raises(ValueError):
        branching_infeasibility(3)


def _full_key_scan(n):
    """The signed trace over all 3 * C(n, 4) pairing keys, each relabelled
    and put back in normal form here, without the module's helpers."""
    values = {}
    for mu in partitions_of(n):
        w = cycle_type_representative(mu)
        trace = 0
        for key in basis_keys(n):
            sign, pairs = 1, []
            for i, j in key:
                a, b = w[i - 1], w[j - 1]
                sign *= 1 if a < b else -1
                pairs.append((min(a, b), max(a, b)))
            if pairs[0] > pairs[1]:
                pairs.reverse()
                sign = -sign
            trace += sign if tuple(pairs) == key else 0
        values[mu] = trace
    return ClassFunction(n, values)


@pytest.mark.parametrize("n", range(4, 13))
def test_stable_four_set_trace_matches_full_key_scan(n):
    assert _signed_permutation_character(n) == _full_key_scan(n)


def _brute_force_feasible(target):
    """Whether some multiplicity vector over partitions of n+1, with entries
    up to the target's largest coefficient, restricts to the target."""
    lams = partitions_of(target.n + 1)
    res = [restrict(S(target.n + 1, {lam: 1})).coeffs for lam in lams]
    want = {mu: int(c) for mu, c in target.coeffs.items()}
    cap = max(want.values(), default=0)
    for mults in product(range(cap + 1), repeat=len(lams)):
        total = {}
        for c, r in zip(mults, res):
            for mu in r if c else ():
                total[mu] = total.get(mu, 0) + c
        if total == want:
            return True
    return False


def test_branching_matches_brute_force():
    rng = random.Random(8)
    targets = [restrict(S(n + 1, {lam: 1})) for n in range(1, 5)
               for lam in partitions_of(n + 1)]
    for _ in range(60):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 1)  # a restriction from degree n+1, or any vector
        parts = partitions_of(m)
        vec = S(m, {lam: rng.randint(1, 2) for lam in rng.sample(parts, min(3, len(parts)))})
        targets.append(restrict(vec) if m > n else vec)
    verdicts = []
    for target in targets:
        cert = branching_certificate(target)
        verdicts.append(cert["status"])
        assert _brute_force_feasible(target) == (cert["status"] == "feasible"), target
        if cert["witness"] is not None:
            rebuilt = S(target.n + 1, {tuple(e["partition"]): e["multiplicity"]
                                       for e in cert["witness"]})
            assert restrict(rebuilt) == target
    assert set(verdicts) == {"feasible", "infeasible"}


def test_branching_past_twenty():
    start = time.perf_counter()
    assert branching_infeasibility(21)["status"] == "infeasible"
    assert time.perf_counter() - start < 5


def _stable_four_sets(w):
    """The 4-subsets of [n] that the permutation w (images of 1..n) maps to
    themselves, each as its sorted tuple."""
    return [four for four in combinations(range(1, len(w) + 1), 4)
            if {w[i - 1] for i in four} == set(four)]


def _kind_and_pattern(w, four):
    """Cycle lengths of w on the stable set four, decreasing, and w on it
    relabelled by rank as a permutation of 1..4."""
    rank = {x: r for r, x in enumerate(four, 1)}
    pattern = tuple(rank[w[x - 1]] for x in four)
    lengths, seen = [], set()
    for x in four:
        length, y = 0, x
        while y not in seen:
            seen.add(y)
            y, length = w[y - 1], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True)), pattern


def test_stable_four_sets_carry_their_kind_pattern():
    """Every w-stable 4-set of the cycle-type representative has the order
    pattern of its kind's S_4 representative, and the sets of each kind number
    four_set_kind_counts(mu): the two facts the kind-summed trace rests on."""
    for n in range(1, 11):
        for mu in partitions_of(n):
            w = cycle_type_representative(mu)
            counts = dict.fromkeys(FOUR_SET_KINDS, 0)
            for four in _stable_four_sets(w):
                kind, pattern = _kind_and_pattern(w, four)
                assert pattern == cycle_type_representative(kind), (mu, four)
                counts[kind] += 1
            assert tuple(counts.values()) == four_set_kind_counts(mu), mu


def test_kind_traces_are_the_pairing_character():
    """The five kind traces are the character of the pairing module V_(2,1,1)
    of S_4 on the kinds' cycle types."""
    char = to_class_function(S(4, {(2, 1, 1): 1}))
    taus = [_kind_trace(kind) for kind in FOUR_SET_KINDS]
    assert taus == [char(kind) for kind in FOUR_SET_KINDS] == [1, 0, -1, -1, 3]
