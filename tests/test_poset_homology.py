import gc
import hashlib
import json
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from coxtoric import cli, poset_homology
from coxtoric.cohomology import rep_via_poset
from coxtoric.combinatorics import (
    apply_permutation,
    cycle_type_representative,
    partitions_of,
)
from coxtoric.linalg import sparse_rank
from coxtoric.poset_homology import (
    IntervalComplex,
    build_interval_complex,
    check_morse_certificate,
    cm_concentration_check,
    equivariant_top_character,
    homology_ranks,
    morse_certificate,
    poset_series_sides,
    top_interval_representation,
    whitney_homology,
)
from coxtoric.rep_ring import RepSeries, SchurVector, pieri_h

from oracles import (
    boundary_product_is_zero,
    euler_characteristic,
    verify_poset_series_identity,
)

S = SchurVector


def test_sparse_rank_basics():
    assert sparse_rank([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1
    assert sparse_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert sparse_rank([]) == 0
    assert sparse_rank([{}]) == 0
    # needs a non-unit pivot at some point
    assert sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 5}]) == 2
    assert sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1


def _dense_rank(rows) -> int:
    """Rank over Q by dense Gaussian elimination in Fractions."""
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    m = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _random_matrix(rng):
    """Sparse integer rows with explicit zeros and non-unit entries, plus
    duplicates, multiples and sums of earlier rows; the dependent rows shrink
    under elimination, so stale heap entries get skipped and rows re-pushed."""
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 8)):
        cols = rng.sample(range(ncols), rng.randint(0, ncols))
        rows.append({c: rng.choice((0, 1, -1, 2, -2, 3, 6, -4)) for c in cols})
    for _ in range(rng.randint(0, 4) if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        kind = rng.randrange(3)
        if kind == 0:
            rows.append(dict(a))
        elif kind == 1:
            rows.append({c: rng.choice((2, -3)) * v for c, v in a.items()})
        else:
            rows.append({c: a.get(c, 0) + b.get(c, 0) for c in set(a) | set(b)})
    rng.shuffle(rows)
    return rows


def test_sparse_rank_matches_dense_oracle():
    for seed in range(300):
        rows = _random_matrix(random.Random(seed))
        assert sparse_rank([dict(r) for r in rows]) == _dense_rank(rows), seed


def test_sparse_rank_shrinking_rows():
    # The pivot row {0, 1} turns each longer row into a shorter one, whose old
    # heap entry goes stale; the staircase keeps full rank.
    rows = [{c: 1 for c in range(k)} for k in range(6, 1, -1)]
    rows.append({0: 2, 5: 3})
    assert sparse_rank(rows) == _dense_rank(rows) == 6


def test_sparse_rank_reaches_size_10():
    # 75,600 rows: seconds with the heap pivot order, minutes with a linear
    # scan for the shortest row.
    assert sparse_rank(IntervalComplex(10).boundary_columns(2)) == 12721


def test_simplex_counts():
    cx4 = build_interval_complex(4)
    assert [len(cx4.chains[d]) for d in (-1, 0)] == [1, 6]
    cx6 = build_interval_complex(6)
    assert [len(cx6.chains[d]) for d in (-1, 0, 1)] == [1, 30, 90]
    cx8 = build_interval_complex(8)
    assert [len(cx8.chains[d]) for d in (-1, 0, 1, 2)] == [1, 126, 1260, 2520]


@pytest.mark.parametrize("size", [4, 6, 8])
def test_boundary_squares_to_zero(size):
    cx = build_interval_complex(size)
    for d in cx.chains:
        if d >= 1:
            assert boundary_product_is_zero(
                cx.boundary_columns(d), cx.boundary_columns(d - 1))


@pytest.mark.parametrize("size,expected", [
    (0, {0: 1}),
    (2, {1: 1}),
    (4, {2: 5}),
    (6, {3: 61}),
    (8, {4: 1385}),
])
def test_homology_ranks(size, expected):
    assert homology_ranks(size) == expected


def test_homology_rejects_odd():
    with pytest.raises(ValueError):
        homology_ranks(3)


def _pairs_per_degree(size):
    """Pairs of the matching, keyed by the degree of their lower chain."""
    return Counter(len(lower) - 1 for lower, _ in morse_certificate(size))


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_matching_pairs_equal_boundary_ranks(size):
    # With every critical chain in the top degree, the pairs between degrees
    # d and d + 1 number exactly the rank of the boundary out of d + 1.
    cx = build_interval_complex(size)
    pairs = _pairs_per_degree(size)
    for d in range(-1, size // 2 - 1):
        assert pairs[d] == sparse_rank(cx.boundary_columns(d + 1)), d


def test_matching_reaches_size_10():
    assert _pairs_per_degree(10)[1] == 12721  # the rank pinned at size 10 above
    assert homology_ranks(10) == {5: 50521}


A, B = frozenset({1, 2}), frozenset({1, 3})
C, D = frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 5})


@pytest.mark.parametrize("pairs,reason", [
    ([((), (frozenset({1}),))], "not an even proper subset"),
    ([((), (A, C))], "not a chain and a face"),
    ([((), (A,)), ((A,), (A, C))], "in two pairs"),
    # (A) < (A, C) > (C) < (B, C) > (B) < (B, D) > (D) < (A, D) > (A)
    ([((A,), (A, C)), ((C,), (B, C)), ((B,), (B, D)), ((D,), (A, D))], "gradient cycle"),
], ids=["odd-element", "differ-by-two", "chain-in-two-pairs", "cycle"])
def test_verifier_rejects_bad_pairs(pairs, reason):
    with pytest.raises(ArithmeticError, match=reason):
        check_morse_certificate(6, pairs)


def _drop_one_pair(size):
    return morse_certificate(size)[1:]


def test_verifier_rejects_a_dropped_pair():
    assert check_morse_certificate(6, morse_certificate(6)) == {3: 61}
    with pytest.raises(ArithmeticError, match="more than one degree"):
        check_morse_certificate(6, _drop_one_pair(6))


@pytest.mark.parametrize("enabled", [True, False])
def test_matching_runs_without_cyclic_gc(monkeypatch, enabled):
    """homology_ranks builds and checks the matching with cyclic gc paused,
    and leaves gc as it found it, also when the check fails."""
    seen = []
    for name in ("build_interval_complex", "_chain_counts"):
        real = getattr(poset_homology, name)
        monkeypatch.setattr(poset_homology, name,
                            lambda n, real=real: seen.append(gc.isenabled()) or real(n))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert homology_ranks.__wrapped__(6) == {3: 61}
        assert gc.isenabled() is enabled
        monkeypatch.setattr(poset_homology, "morse_certificate", _drop_one_pair)
        with pytest.raises(ArithmeticError):
            homology_ranks.__wrapped__(6)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4


def test_dropped_pair_fails_homology_and_cli(monkeypatch, capsys):
    monkeypatch.setattr(poset_homology, "morse_certificate", _drop_one_pair)
    homology_ranks.cache_clear()
    with pytest.raises(ArithmeticError):
        homology_ranks(6)
    assert cli.main(["poset-homology", "--n", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and list(json.loads(err)) == ["discrepancy"]


def test_euler_characteristic_matches_homology():
    for size in (2, 4, 6, 8):
        cx = build_interval_complex(size)
        ranks = homology_ranks(size)
        alternating = sum((-1) ** (m - 2) * r for m, r in ranks.items())
        assert euler_characteristic(cx) == alternating


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_concentration(n):
    assert cm_concentration_check(n)


def test_top_character_small():
    assert equivariant_top_character(0).values == {(): Fraction(1)}
    char2 = equivariant_top_character(2)
    assert all(char2(mu) == 1 for mu in partitions_of(2))
    assert top_interval_representation(2) == S(2, {(2,): 1})
    assert top_interval_representation(4) == S(4, {(3, 1): 1, (2, 2): 1})


def _fixed_chain_character(n):
    """Hopf trace by filtering every chain of the complex for fixed ones."""
    cx = build_interval_complex(n)
    values = {}
    for mu in partitions_of(n):
        w = cycle_type_representative(mu)
        fixed_elems = {e for e in cx.elements if apply_permutation(w, e) == e}
        lefschetz = 0
        for d, chains in cx.chains.items():
            count = sum(1 for c in chains if all(x in fixed_elems for x in c))
            lefschetz += (-1) ** d * count
        values[mu] = Fraction((-1) ** (n // 2) * lefschetz)
    return values


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_top_character_matches_fixed_chain_filter(n):
    assert equivariant_top_character(n).values == _fixed_chain_character(n)


def test_top_character_identity_is_rank():
    for n in (2, 4, 6):
        char = equivariant_top_character(n)
        top_rank = homology_ranks(n)[n // 2]
        assert char((1,) * n) == top_rank


def test_top_representation_matches_series_inverse():
    """The decomposed top homology equals the matching inverse-series term."""
    N = 6
    series = RepSeries(N, {(0, 0): S.unit()})
    for n in range(2, N + 1, 2):
        series.set_term(n, 0, S.h(n))
    inv = series.invert()
    for n in (2, 4, 6):
        expected = inv.term(n, 0).scale((-1) ** (n // 2))
        assert top_interval_representation(n) == expected


def test_whitney_bottom_and_atoms():
    for n in (4, 5, 6):
        assert whitney_homology(n, 0) == S(n, {(n,): 1})
        atoms = whitney_homology(n, 1)
        assert atoms == pieri_h(S(2, {(2,): 1}), n - 2)
        assert atoms.dimension() == comb(n, 2)


def test_whitney_alternating_sum_vanishes_n4():
    total = S.zero(4)
    for i in range(3):
        total = total + whitney_homology(4, i).scale((-1) ** i)
    assert total.is_zero()


def test_whitney_bounds():
    with pytest.raises(ValueError):
        whitney_homology(4, 3)


@pytest.mark.parametrize("N", [2, 4, 6])
def test_series_identity(N):
    assert verify_poset_series_identity(N)


def test_series_sides_shape():
    lhs, rhs = poset_series_sides(6)
    assert lhs[0] == S.unit()
    assert lhs[2] == S(2, {(2,): -1})
    assert set(lhs) == {0, 2, 4, 6}


# sha256 of every chain of IntervalComplex(n), degree by degree, in order.
# Size 10 hashes to 21828e84b95141f1089e1ea5d74e791e5b15cf9f0cf90c07c7982e78e9475770.
CHAIN_DIGESTS = {
    2: "23db303f6e9471e84400934ef90ae56374b92a8673646e9550cee79b8c3d20dc",
    4: "bc028840c3d39c14fe64ed6fe9ca34254789ebe186cc736908539640e5525597",
    6: "66b0d692e5408b0ccadde4f5f0dd60e66683c427e55ef22332d451d0659839e7",
    8: "662fa5c454950ebab7844e6039ce4e97704cf92c1bb2fb4be6d1b7a38654cb02",
}


@pytest.mark.parametrize("n", sorted(CHAIN_DIGESTS))
def test_chain_order_pinned(n):
    cx = IntervalComplex(n)
    text = repr([(d, [[sorted(e) for e in c] for c in cs]) for d, cs in cx.chains.items()])
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_DIGESTS[n]


def test_complex_not_retained(monkeypatch):
    built = []

    class Recorded(IntervalComplex):
        def __init__(self, top_size):
            super().__init__(top_size)
            built.append(weakref.ref(self))

    monkeypatch.setattr(poset_homology, "IntervalComplex", Recorded)
    assert homology_ranks.__wrapped__(8) == {4: 1385}
    gc.collect()
    assert len(built) == 1 and built[0]() is None


@pytest.mark.parametrize("call", [
    lambda: homology_ranks(12),
    lambda: equivariant_top_character(12),
    lambda: whitney_homology(12, 6),
    lambda: rep_via_poset(12, 6),
], ids=["homology_ranks", "equivariant_top_character", "whitney_homology", "rep_via_poset"])
def test_brute_force_ceiling(call):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        call()
    assert time.perf_counter() - start < 1
