import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from coxtoric import combinatorics, wonderful_model
from coxtoric.cohomology import betti
from coxtoric.combinatorics import all_chains, enumerate_chains
from coxtoric.wonderful_model import (
    ModelPoint,
    closure_curve_witness,
    closure_refinement,
    degeneration_witness,
    equivariance_report,
    euler_characteristic_cells,
    first_violation,
    is_on_model,
    orbit_of,
    permute_chain,
    permute_point,
    random_model_point,
    random_torus_element,
    representative_point,
    torus_act,
    torus_embedding,
    unrank_chain,
)

from oracles import on_model_by_minors, rank_at_most_one, satisfies_closure_equations

FULL3 = frozenset({1, 2, 3})


def point3(top, b, c, d):
    return ModelPoint(3, {
        FULL3: top,
        frozenset({1, 2}): b,
        frozenset({1, 3}): c,
        frozenset({2, 3}): d,
    })


def test_projective_equality():
    assert wonderful_model._minors_vanish((1, 2), (2, 4))
    assert wonderful_model._minors_vanish((0, 1), (0, 3))
    assert not wonderful_model._minors_vanish((1, 0), (0, 1))
    assert not wonderful_model._minors_vanish((1, 2), (1, 3))


def test_torus_embedding():
    p = torus_embedding((1, 1))
    assert all(coords == (1, 1) or coords == (Fraction(1),)
               for coords in p.components.values())
    q = torus_embedding((1, 2, 3))
    assert q.components[frozenset({1, 2})] == (1, 2)
    assert q.components[frozenset({2, 3})] == (2, 3)
    with pytest.raises(ValueError):
        torus_embedding((1, 0, 2))


def test_torus_images_lie_on_model():
    rng = random.Random(0)
    for n in range(2, 7):
        for _ in range(50):
            p = torus_embedding(random_torus_element(n, rng))
            assert is_on_model(p)
            assert orbit_of(p) == (frozenset(range(1, n + 1)), frozenset())


def test_membership_equations_n3():
    # over the top component [0:0:1], both mixed components are pinned to [0:1]
    assert is_on_model(point3((0, 0, 1), (1, 2), (0, 1), (0, 1)))
    assert not is_on_model(point3((0, 0, 1), (1, 2), (1, 1), (0, 1)))
    # a nonzero first entry in the {1,3} component violates a1*c3 = a3*c1
    bad = point3((0, 0, 1), (1, 2), (1, 0), (0, 1))
    assert not is_on_model(bad)
    assert first_violation(bad) == ([1, 3], [1, 2, 3])


def test_orbit_classification_n3():
    assert orbit_of(point3((0, 1, 2), (0, 1), (0, 1), (1, 2))) == (
        FULL3, frozenset({1}), frozenset())
    assert orbit_of(point3((0, 0, 1), (1, 2), (0, 1), (0, 1))) == (
        FULL3, frozenset({1, 2}), frozenset())
    assert orbit_of(point3((0, 0, 1), (0, 1), (0, 1), (0, 1))) == (
        FULL3, frozenset({1, 2}), frozenset({1}), frozenset())


def test_orbit_requires_membership():
    with pytest.raises(ValueError):
        orbit_of(point3((0, 0, 1), (1, 2), (1, 1), (0, 1)))


def test_degeneration_requires_membership():
    with pytest.raises(ValueError):
        degeneration_witness(point3((0, 0, 1), (1, 2), (1, 1), (0, 1)))


def _all_minors_violation(p):
    """Oracle: every 2x2 minor of every nested pair in Fractions, pairs in
    (size, lex) order of I, then of J."""
    subsets = sorted(p.components, key=lambda s: (len(s), sorted(s)))
    for small in subsets:
        for big in subsets:
            if len(small) < 2 or len(big) <= len(small) or not small <= big:
                continue
            u = p.components[small]
            v = tuple(p.components[big][sorted(big).index(i)] for i in sorted(small))
            if any(u[a] * v[b] != u[b] * v[a]
                   for a in range(len(u)) for b in range(a + 1, len(u))):
                return (sorted(small), sorted(big))
    return None


def _bent_copies(p, rng):
    """The point with components rescaled by mixed-sign rationals, then with
    one coordinate changed, set to zero and negated, one at a time."""
    def scalar():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))

    scaled = {s: tuple(k * c for c in coords)
              for s, coords in p.components.items() for k in [scalar()]}
    out = [ModelPoint(p.n, scaled)]
    for change in (lambda c: c + scalar(), lambda c: Fraction(0), lambda c: -c):
        comps = dict(scaled)
        subset = rng.choice(sorted((s for s in comps if len(s) > 1), key=sorted))
        coords = list(comps[subset])
        k = rng.randrange(len(coords))
        coords[k] = change(coords[k])
        if any(coords):
            comps[subset] = tuple(coords)
            out.append(ModelPoint(p.n, comps))
    return out


def test_first_violation_matches_all_minors_oracle():
    rng = random.Random(11)
    verdicts = set()
    for n in range(2, 6):
        for _ in range(30):
            p = random_model_point(n, rng)
            for q in [p] + _bent_copies(p, rng):
                expected = _all_minors_violation(q)
                assert first_violation(q) == expected
                assert is_on_model(q) == (expected is None)
                verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_chain_membership_matches_full_scan():
    """is_on_model reads each component against its orbit chain block;
    first_violation reads every nested pair. Bent copies change one coordinate
    of one component, keeping it nonzero."""
    rng = random.Random(5)
    bends = (lambda c: Fraction(0), lambda c: 2 * c, lambda c: c + 1)
    verdicts = set()
    for n in range(2, 7):
        for _ in range(25):
            p = random_model_point(n, rng)
            points = [p]
            for bend in bends:
                comps = dict(p.components)
                subset = rng.choice(sorted((s for s in comps if len(s) > 1), key=sorted))
                coords = list(comps[subset])
                k = rng.randrange(len(coords))
                coords[k] = bend(coords[k])
                if any(coords):
                    comps[subset] = tuple(coords)
                    points.append(ModelPoint(n, comps))
            for q in points:
                on_model = first_violation(q) is None
                assert is_on_model(q) == on_model
                verdicts.add(on_model)
    assert verdicts == {True, False}


def test_chain_membership_on_every_chain_of_5():
    """On every chain of n <= 5: the canonical point, a torus translate, and
    copies bent in one coordinate, one of them with a zero written into a
    block's component so that the vanishing chain itself moves. Each copy is
    a fresh point, so nothing is read from an earlier scan."""
    rng = random.Random(17)
    verdicts, moved_on_model = set(), 0
    for n in range(1, 6):
        for chain in all_chains(n):
            p = representative_point(chain)
            q = torus_act(random_torus_element(n, rng), p)
            points = [p, q]
            block = rng.choice(chain[:-1])
            coords = list(q.components[block])
            nonzero = [k for k, c in enumerate(coords) if c]
            if len(nonzero) > 1:
                coords[rng.choice(nonzero)] = 0
                points.append(ModelPoint(n, {**q.components, block: tuple(coords)}))
            if n > 1:
                subset = rng.choice(sorted((s for s in q.components if len(s) > 1), key=sorted))
                coords = list(q.components[subset])
                k = rng.randrange(len(coords))
                for bent in (coords[k] + 1, -coords[k]):
                    if any(coords[:k] + [bent] + coords[k + 1:]):
                        points.append(ModelPoint(n, {
                            **q.components, subset: (*coords[:k], bent, *coords[k + 1:])}))
            for r in points:
                expected = first_violation(r) is None
                assert is_on_model(r) == expected
                verdicts.add(expected)
                if expected:
                    assert orbit_of(r) == wonderful_model._orbit(r)[0]
                    moved_on_model += orbit_of(r) != chain
                else:
                    with pytest.raises(ValueError):
                        orbit_of(r)
    assert verdicts == {True, False} and moved_on_model > 0


def test_comparisons_match_the_minors_oracle():
    """Seeded points at n <= 6, as drawn (components share coordinate
    objects) and with each component rescaled (none shared), bent in one
    coordinate: zeroed, doubled, shifted by 1. The scan agrees with the
    defining equations, and _minors_vanish with the Fraction minors on every
    component against its unbent twin and on every nested pair."""
    rng = random.Random(29)
    bends = (lambda c: 0, lambda c: 2 * c, lambda c: c + 1)
    verdicts, pair_verdicts = set(), set()
    for n in range(2, 7):
        for _ in range(4):
            drawn = random_model_point(n, rng)
            rescaled = ModelPoint(n, {
                s: tuple(k * c for c in coords) for s, coords in drawn.components.items()
                for k in [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))]})
            for p in (drawn, rescaled):
                for bend in bends:
                    subset = rng.choice(sorted((s for s in p.components if len(s) > 1),
                                               key=sorted))
                    coords = list(p.components[subset])
                    k = rng.randrange(len(coords))
                    coords[k] = bend(coords[k])
                    if not any(coords):
                        continue
                    q = ModelPoint(n, {**p.components, subset: tuple(coords)})
                    expected = on_model_by_minors(q)
                    assert is_on_model(q) == expected
                    verdicts.add(expected)
                    pairs = [(u, p.components[s]) for s, u in q.components.items()]
                    pairs += [(u, [q.components[big][sorted(big).index(i)] for i in sorted(small)])
                              for small, u in q.components.items() if len(small) > 1
                              for big in q.components if small < big]
                    for u, v in pairs:
                        expected = rank_at_most_one(u, v)
                        assert wonderful_model._minors_vanish(u, v) == expected
                        pair_verdicts.add(expected)
    assert verdicts == pair_verdicts == {True, False}


def test_one_scan_per_point(monkeypatch):
    calls = []
    scan = wonderful_model._chain_on_model
    monkeypatch.setattr(wonderful_model, "_chain_on_model", lambda p: calls.append(p) or scan(p))
    p = torus_embedding((2, 3, 5))
    assert is_on_model(p) and orbit_of(p) and degeneration_witness(p)["ok"]
    assert len(calls) == 1 and calls[0] is p


def _typed(p):
    return {subset: [(type(c), c) for c in coords] for subset, coords in p.components.items()}


def test_translate_is_torus_act_on_the_canonical_point():
    """Values and types, for int, Fraction and str torus elements."""
    rng = random.Random(23)
    for n in range(1, 5):
        for chain in all_chains(n):
            for t in (tuple(rng.choice((1, -2, 3)) for _ in range(n)),
                      random_torus_element(n, rng),
                      tuple(rng.choice(("1", "-3/2", "0.25", "5")) for _ in range(n))):
                direct = wonderful_model._translate(
                    chain, wonderful_model._torus_element(t, n))
                assert _typed(direct) == _typed(torus_act(t, representative_point(chain)))
    for bad in ((), (1, 0, 2), ("0",), (Fraction(0), 1)):
        with pytest.raises(ValueError):
            torus_embedding(bad)


def test_torus_act_on_unshared_coordinates():
    """Each component rescaled by its own rational, so that a position holds
    a different coordinate object in each component: every entry is still
    t_i * c, of the same type."""
    rng = random.Random(31)
    for n in range(2, 6):
        p = random_model_point(n, rng)
        q = ModelPoint(n, {s: tuple(k * c for c in coords) for s, coords in p.components.items()
                           for k in [Fraction(rng.randint(1, 9), rng.randint(1, 9))]})
        t = random_torus_element(n, rng)
        expected = {s: tuple(t[i - 1] * c if c else c for i, c in zip(sorted(s), coords))
                    for s, coords in q.components.items()}
        assert _typed(torus_act(t, q)) == _typed(ModelPoint(n, expected))


def test_unrank_chain_matches_enumeration():
    for n in range(1, 7):
        chains = all_chains(n)
        assert [unrank_chain(n, r) for r in range(len(chains))] == chains
        for r in (-1, len(chains)):
            with pytest.raises(ValueError):
                unrank_chain(n, r)


def test_random_model_point_enumerates_no_chain(monkeypatch):
    def boom(*args):
        raise AssertionError("chains enumerated")

    for name in ("enumerate_chains", "all_chains"):
        monkeypatch.setattr(combinatorics, name, boom)
        monkeypatch.setattr(wonderful_model, name, boom, raising=False)
    p = random_model_point(7, random.Random(0))
    assert p.n == 7 and is_on_model(p)


def test_random_draws_pinned():
    """The digests hold the chain order behind random_model_point's draws."""
    def sha(data):
        return hashlib.sha256(json.dumps(data).encode()).hexdigest()

    assert sha(equivariance_report(5, 30, 1)) == (
        "8d4e8ec115a0bb14d0e43f93bf2586fa69ecc51a0354a74208a06e0822375155")
    assert sha([random_model_point(5, random.Random(s)).to_json() for s in range(20)]) == (
        "8a66e512968314184a429257d7db01a5412691fb94db7b6c0f30998a08dd4eb5")


def test_first_violation_pinned():
    """Seeded points at n = 2..7, each with copies bent in coordinate 0 of
    one of its first three non-singleton components (set to 3/7, or to 2
    where it is 3/7): the digest pins both verdicts on every copy."""
    results = []
    for n in range(2, 8):
        for seed in range(10):
            p = random_model_point(n, random.Random(seed))
            points = [p]
            for _, key in wonderful_model._keys(n)[n:n + 3]:
                coords = p.components[key]
                bent = Fraction(2) if coords[0] == Fraction(3, 7) else Fraction(3, 7)
                points.append(ModelPoint(n, {**p.components, key: (bent, *coords[1:])}))
            results += [(is_on_model(q), first_violation(q)) for q in points]
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "366a0b7fa8f8852e3a16bccdad0cab65fc2f8cd4de9a5c7d413093a19a5632e8")


def test_witnesses_pinned():
    """Every degeneration witness on the canonical point and one seeded torus
    translate of each chain, and every closure curve witness on a refining
    pair, for n <= 4: the digests pin both reports in full."""
    def sha(data):
        return hashlib.sha256(json.dumps(data).encode()).hexdigest()

    witnesses = []
    for n in range(1, 5):
        rng = random.Random(n)
        for chain in all_chains(n):
            rep = representative_point(chain)
            witnesses.append(degeneration_witness(rep))
            witnesses.append(degeneration_witness(torus_act(random_torus_element(n, rng), rep)))
    assert sha(witnesses) == (
        "66714acf67ff43f81c007e956641750528d4910383a21a392bd82b903b7d769e")
    curves = [closure_curve_witness(a, b) for n in range(1, 5)
              for a in all_chains(n) for b in all_chains(n) if closure_refinement(a, b)]
    assert len(curves) == 408
    assert sha(curves) == (
        "0ef672ae99a40c800ba8b59885c9c09fa78213b02ff224017342afaf63fc2d51")


def test_no_chain_for_empty_ground_set():
    """ordered_bell(0) == 1 admits index 0, but no chain has n = 0."""
    with pytest.raises(ValueError):
        unrank_chain(0, 0)
    with pytest.raises(ValueError):
        random_model_point(0, random.Random(0))


def test_representative_round_trip():
    for n in (2, 3, 4):
        for chain in all_chains(n):
            rep = representative_point(chain)
            assert is_on_model(rep)
            assert orbit_of(rep) == chain


def test_degeneration_generic():
    p = torus_embedding((2, 3, 5))
    report = degeneration_witness(p)
    assert report["ok"]
    assert all(entry["power"] == 1 for entry in report["family"].values())


def test_degeneration_deep_stratum():
    p = point3((0, 0, 1), (0, 1), (0, 1), (0, 1))
    report = degeneration_witness(p)
    assert report["ok"]
    assert report["chain"] == [[1, 2, 3], [1, 2], [1], []]


def test_degeneration_all_chains_of_4():
    chains = all_chains(4)
    assert len(chains) == 75
    for chain in chains:
        assert degeneration_witness(representative_point(chain))["ok"]


def test_group_actions():
    p = point3((0, 1, 2), (0, 1), (0, 1), (1, 2))
    assert torus_act((1, 1, 1), p) == p
    assert permute_point((1, 2, 3), p) == p
    two = torus_embedding((1, 2))
    for w in ((2.0, 1), (True, 2)):  # sorted like (1, 2), but not ints
        with pytest.raises(ValueError, match="w must be a permutation of 1..n"):
            permute_point(w, two)
    rng = random.Random(1)
    for n in range(2, 6):
        q = random_model_point(n, rng)
        t = random_torus_element(n, rng)
        assert is_on_model(torus_act(t, q))
        assert orbit_of(torus_act(t, q)) == orbit_of(q)
        w = tuple(rng.sample(range(1, n + 1), n))
        moved = permute_point(w, q)
        assert is_on_model(moved)
        assert orbit_of(moved) == permute_chain(w, orbit_of(q))


def test_permutation_action_is_an_action():
    rng = random.Random(2)
    p = random_model_point(4, rng)
    for w in permutations(range(1, 5)):
        for v in ((2, 1, 3, 4), (2, 3, 4, 1)):
            composed = tuple(v[w[i - 1] - 1] for i in range(1, 5))
            assert permute_point(v, permute_point(w, p)) == permute_point(composed, p)


def test_equivariance_report():
    report = equivariance_report(4, 25, seed=3)
    assert report["ok"] and report["trials"] == 25


def test_euler_characteristic_cells():
    assert euler_characteristic_cells(2) == 0
    assert euler_characteristic_cells(3) == -2
    assert euler_characteristic_cells(4) == 0
    for n in range(1, 11):
        assert euler_characteristic_cells(n) == sum(
            (-1) ** i * betti(n, i) for i in range(n // 2 + 1))


def test_euler_cells_against_enumeration():
    for n in range(1, 7):
        by_chains = sum(
            (-2) ** (n - m) * len(enumerate_chains(n, m)) for m in range(1, n + 1))
        assert euler_characteristic_cells(n) == by_chains


def test_orbit_and_cone_dimensions():
    for chain in all_chains(4):
        m = len(chain) - 1
        assert (4 - m) + (m - 1) == 3


def test_closure_refinement_basics():
    dense = (frozenset({1, 2, 3}), frozenset())
    for chain in all_chains(3):
        assert closure_refinement(chain, dense)
    fine = (FULL3, frozenset({1, 2}), frozenset({1}), frozenset())
    coarse = (FULL3, frozenset({1, 2}), frozenset())
    assert closure_refinement(fine, coarse)
    assert not closure_refinement(coarse, fine)


def test_closure_refinement_partial_order():
    chains = all_chains(4)
    for a in chains:
        assert closure_refinement(a, a)
    for a in chains:
        for b in chains:
            if a != b and closure_refinement(a, b):
                assert not closure_refinement(b, a)
            for c in chains:
                if closure_refinement(a, b) and closure_refinement(b, c):
                    assert closure_refinement(a, c)


def test_closure_equations_match_refinement_exactly():
    """D-closure contains exactly the refining orbits, via representatives."""
    chains = all_chains(4)
    reps = {chain: representative_point(chain) for chain in chains}
    for a in chains:
        for b in chains:
            assert closure_refinement(a, b) == satisfies_closure_equations(reps[a], b)


def test_closure_curves():
    chains = all_chains(4)
    for a in chains:
        for b in chains:
            if closure_refinement(a, b):
                assert closure_curve_witness(a, b)["ok"]
    with pytest.raises(ValueError):
        coarse = (frozenset({1, 2, 3, 4}), frozenset({1, 2}), frozenset())
        fine = (frozenset({1, 2, 3, 4}), frozenset({1, 2, 3}), frozenset())
        closure_curve_witness(fine, coarse)


def test_model_point_validation():
    with pytest.raises(ValueError):
        point3((0, 0, 0), (1, 2), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        ModelPoint(3, {FULL3: (1, 1, 1)})
    with pytest.raises(ValueError):
        ModelPoint(3, {frozenset({1, 4}): (1, 1)})
    # the constructor reads n, the mapping, each subset and each coordinate
    # list itself: a bool is not an int, a string is not a coordinate list,
    # a tuple subset is strictly increasing and a subset is named once
    for n, components in [(2, {(1, 2): "12"}), (True, {}), (2, {(1, 2): 5}),
                          (2, [((1, 2), (1, 1))]), (2, {(True, 2): (1, 1)}), (2.0, {}),
                          ([3], {}), (2, {(2, 1): (1, 5)}),
                          (2, {(1, 2): (1, 1), frozenset({1, 2}): (1, 2)})]:
        with pytest.raises(ValueError):
            ModelPoint(n, components)


def test_coordinate_strings():
    p = point3(("-2", "1/3", "0.5"), (1, 2), ("0", 1), (0, 1))
    assert p.components[FULL3] == (-2, Fraction(1, 3), Fraction(1, 2))
    q = point3(("1/2", "2/4", "0.5"), ("-3/6", "-0.5"), ("0/7", "2/2"), (1, "1.0"))
    assert q.components[FULL3] == (Fraction(1, 2),) * 3 and q.components[frozenset({1, 2})] == (-0.5, -0.5)
    assert q.components[frozenset({1, 3})] == (0, 1)
    assert q.components[frozenset({2, 3})] == (1, 1)
    for bad in ("1e2", "1E-2", "2/0", "x", 0.5, True, None):
        with pytest.raises(ValueError):
            point3(("1", bad, "1"), (1, 2), (0, 1), (0, 1))


def test_json_round_trip():
    p = point3((0, Fraction(1, 2), 2), (0, 1), (0, 1), (1, 4))
    data = p.to_json()
    assert data["components"][0] == {"subset": [1], "coords": ["1"]}
    assert ModelPoint.from_json(data) == p


def test_each_distinct_string_parsed_once(monkeypatch):
    """One construction parses each distinct coordinate string once, equal
    strings share one coordinate, and nothing is kept for the next
    construction, which parses them all again into fresh coordinates."""
    data = random_model_point(6, random.Random(3)).to_json()
    strings = [c for entry in data["components"] for c in entry["coords"]]
    assert len(set(strings)) < len(strings)
    parses = []

    def counting(value):
        parses.append(value)
        return Fraction(value)

    monkeypatch.setattr(combinatorics, "Fraction", counting)
    points = []
    for _ in range(2):
        parses.clear()
        points.append(ModelPoint.from_json(data))
        assert sorted(parses) == sorted(set(strings))
    monkeypatch.undo()
    first, second = ({id(c) for coords in p.components.values() for c in coords} for p in points)
    assert len(first) == len(second) == len(set(strings)) and not first & second
    assert first_violation(points[0]) is None and points[0] == points[1]


def test_large_n_refused_without_listing_subsets(monkeypatch):
    """The constructor and from_json refuse an n above MAX_POINT_N without
    building the subsets of [n]."""
    keys = wonderful_model._keys

    def small_keys(n):
        subsets = keys(n)
        if n > 7:
            raise AssertionError(f"_keys({n}) listed 2^{n} - 1 subsets")
        return subsets

    monkeypatch.setattr(wonderful_model, "_keys", small_keys)
    with pytest.raises(ValueError, match="limited to 7"):
        ModelPoint(30, {})
    with pytest.raises(ValueError, match="limited to 7"):
        ModelPoint.from_json({"n": 30, "components": []})
    assert wonderful_model.MAX_POINT_N == 7


def test_every_size_entry_point_refuses_its_limit(monkeypatch):
    """Every entry point that takes a size refuses its limit + 1 and
    n = 10**6 with ValueError in under 0.1 s. _keys is wrapped to fail if it
    lists the subsets of an n above MAX_POINT_N, and after each call the
    Stirling table must hold no row past combinatorics.MAX_STIRLING_N, so no
    refusal comes after the work it guards. A size-n input (torus
    coordinates, a chain) is built before the call is timed."""
    keys = wonderful_model._keys
    point_n, stirling_n = wonderful_model.MAX_POINT_N, combinatorics.MAX_STIRLING_N

    def small_keys(n):
        subsets = keys(n)
        assert n <= point_n, f"_keys({n}) listed 2^{n} - 1 subsets"
        return subsets

    def chain(n):  # [n] > [7] > [6] > ... > {}: every step down at n = 8
        return (frozenset(range(1, n + 1)),
                *(frozenset(range(1, k + 1)) for k in range(7, -1, -1)))

    monkeypatch.setattr(wonderful_model, "_keys", small_keys)
    # (name, limit, build: n -> the call's argument, int for the size itself, call)
    entry_points = [
        ("ModelPoint", point_n, int, lambda n: ModelPoint(n, {})),
        ("from_json", point_n, int, lambda n: ModelPoint.from_json({"n": n, "components": []})),
        ("torus_embedding", point_n, lambda n: tuple(range(1, n + 1)), torus_embedding),
        ("representative_point", point_n, chain, representative_point),
        ("random_model_point", point_n, int, lambda n: random_model_point(n, random.Random(0))),
        ("equivariance_report", point_n, int, lambda n: equivariance_report(n, 1, 0)),
        ("euler_characteristic_cells", stirling_n, int, euler_characteristic_cells),
        ("ordered_bell", stirling_n, int, combinatorics.ordered_bell),
        ("unrank_chain", stirling_n, int, lambda n: unrank_chain(n, 0)),
        ("stirling2", stirling_n, int, lambda n: combinatorics.stirling2(n, 1)),
    ]
    for name, limit, build, call in entry_points:
        for n in (limit + 1, 10 ** 6):
            arg = build(n)
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"n = {n} is limited to {limit}"):
                call(arg)
            assert time.perf_counter() - start < 0.1, (name, n)
            assert len(combinatorics._STIRLING) <= stirling_n + 1, (name, n)
    # from_json refuses the size before it reads an entry it would also refuse
    bad_entry = {"subset": [2, 1], "coords": ["1", "1"]}
    with pytest.raises(ValueError, match="limited to 7"):
        ModelPoint.from_json({"n": 8, "components": [bad_entry]})


def test_first_violation_stops_at_the_first_failing_pair(monkeypatch):
    """Bent at [1, 2], a point at n = 7 fails on its first nested pair,
    ([1, 2], [1, 2, 3]), and the walk tests no other pair."""
    data = random_model_point(7, random.Random(0)).to_json()
    coords = next(e for e in data["components"] if e["subset"] == [1, 2])["coords"]
    coords[1] = "1" if coords[1] == "0" else "0"
    p = ModelPoint.from_json(data)
    tests = []
    vanish = wonderful_model._minors_vanish
    monkeypatch.setattr(wonderful_model, "_minors_vanish",
                        lambda u, v: tests.append((u, v)) or vanish(u, v))
    assert first_violation(p) == ([1, 2], [1, 2, 3]) and len(tests) == 1


def test_parse_keeps_every_refusal(monkeypatch):
    """A repeated zero denominator is refused on every construction; an
    exponent is refused wherever it first appears, and after a zero
    denominator in the same component it is never handed to Fraction."""
    ok = {"subset": [1, 2], "coords": ["2", "1/3"]}
    for _ in range(2):
        with pytest.raises(ValueError, match="zero denominator"):
            ModelPoint.from_json({"n": 3, "components": [
                ok, {"subset": [1, 3], "coords": ["1/0", "1"]},
                {"subset": [1, 2, 3], "coords": ["1/0", "1/0", "2"]}]})
    for bad in ("2e0", "1E-2"):
        with pytest.raises(ValueError, match="exponent"):
            ModelPoint.from_json({"n": 3, "components": [
                ok, {"subset": [1, 3], "coords": ["2", bad]}]})
    parses, fraction = [], combinatorics.Fraction
    monkeypatch.setattr(combinatorics, "Fraction",
                        lambda value: parses.append(value) or fraction(value))
    with pytest.raises(ValueError):
        ModelPoint.from_json({"n": 2, "components": [
            {"subset": [1, 2], "coords": ["1/0", "1e5"]}]})
    assert "1e5" not in parses


def test_torus_element_refuses_what_a_point_file_may_not_hold():
    """torus_embedding and torus_act read t through exact_rational: an
    exponent is refused before Fraction would expand it, a zero denominator
    is a ValueError, and a float or a bool is not read as a rational."""
    p = torus_embedding([1, "2/3", -1])
    assert p.components[frozenset({1, 2, 3})] == (1, Fraction(2, 3), -1)
    for bad in ("1e10000000", "1/0", 0.1, True):
        for call in (lambda: torus_embedding([bad, "1"]), lambda: torus_act([1, bad, 1], p)):
            start = time.perf_counter()
            with pytest.raises(ValueError):
                call()
            assert time.perf_counter() - start < 0.1, bad
