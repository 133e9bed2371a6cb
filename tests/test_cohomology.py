import hashlib
from math import comb

import pytest

from coxtoric import cli, cohomology, rep_ring
from coxtoric.cohomology import (
    betti,
    cohomology_series_formula,
    cohomology_series_poset,
    rep_via_induction,
    rep_via_poset,
    verify_cohomology_series,
)
from coxtoric.rep_ring import RepSeries, SchurVector, pieri_e, pieri_h

from oracles import exponential_specialization, substitute_t

S = SchurVector


def even_compositions(total):
    """Ordered tuples of even parts >= 2 with the given sum."""
    if total == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(2, total + 1, 2)
                 for rest in even_compositions(total - first))


def composition_sum(n, i):
    """The induction formula expanded: sum over ordered even compositions of 2i
    of (-1)^(i + len) e_parts h_{n-2i}, each product by iterated Pieri."""
    acc = S.zero(n)
    for parts in even_compositions(2 * i):
        vec = S.unit()
        for p in parts:
            vec = pieri_e(vec, p)
        acc = acc + pieri_h(vec, n - 2 * i).scale((-1) ** (i + len(parts)))
    return acc


def test_betti_examples():
    assert all(betti(n, 0) == 1 for n in range(1, 13))
    assert betti(4, 2) == 5
    assert all(betti(n, 1) == comb(n, 2) for n in range(2, 13))
    assert betti(6, 3) == 61
    assert betti(10, 5) == 50521


def test_betti_vanishing_threshold():
    for n in range(1, 11):
        for i in range(0, 7):
            assert (betti(n, i) == 0) == (2 * i > n)


def test_even_compositions():
    assert even_compositions(0) == ((),)
    assert set(even_compositions(4)) == {(4,), (2, 2)}
    assert set(even_compositions(6)) == {(6,), (4, 2), (2, 4), (2, 2, 2)}


def test_rep_via_induction_matches_composition_sum():
    for n in range(0, 11):
        for i in range(0, n // 2 + 1):
            assert rep_via_induction(n, i) == composition_sum(n, i)


def test_series_formula_matches_series_product():
    for N in range(0, 9):
        h_series = RepSeries(N, {(n, 0): S.h(n) for n in range(N + 1)})
        e_series = RepSeries(N, {(n, n // 2): S.e(n) for n in range(0, N + 1, 2)})
        assert cohomology_series_formula(N) == h_series * e_series.invert()


# sha256 of the JSON stdout of commands that pass through decompose,
# characters and multiplicity output.
PINNED_OUTPUTS = {
    "rep-table --n 12":
        "b5492d3a1ea901dbf644669bba9fb1ed4215fc9649a9ea5a2c6b57c87a46f48e",
    "poset-homology --n 8":
        "1f3e25d003da8d967b2c7fda750f7ffec5fb64e91c6de211b633670dcc26930d",
    "whitney --n 8":
        "32335dc286306dd79c0537d9f4ed4a44c0556680d60e225d44d23ed2bea4f6ae",
    "rep-table --n 8 --route poset":
        "881d5a8677d373ed760c943cfe1ff4752af4e84abb8c02761e475789d9139079",
    "cup-rep --n 20":
        "ce28cab1967cb8151cdcb0f2b772e8b144439a9ce739ea5de8c84076a7cd4f5a",
    "branching-check --n 5":
        "7303a336c4c3b092991401eb950e6722aca6cc59b31c05c4eda88afd7abaa678",
}


@pytest.mark.parametrize("command", PINNED_OUTPUTS)
def test_rep_table_output_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[command]


def test_rep_via_induction_examples():
    assert rep_via_induction(5, 0) == S(5, {(5,): 1})
    assert rep_via_induction(4, 2) == S(4, {(2, 2): 1, (2, 1, 1): 1})
    assert rep_via_induction(4, 1) == S(4, {(3, 1): 1, (2, 1, 1): 1})
    assert rep_via_induction(4, 1).dimension() == comb(4, 2)
    assert rep_via_induction(4, 3).is_zero()


def test_rep_via_poset_examples():
    assert rep_via_poset(5, 0) == S(5, {(5,): 1})
    assert rep_via_poset(4, 2) == S(4, {(2, 2): 1, (2, 1, 1): 1})
    assert rep_via_poset(5, 1) == S(5, {(4, 1): 1, (3, 1, 1): 1})


def test_induction_signs_validate_no_pieri_output(monkeypatch):
    """The sign (-1)^i is a negation, so every degree at n = 14 runs its
    Pieri outputs through no validation: the only validated vectors are the
    constants zero and unit, with at most one partition each."""
    validated = rep_ring._validated
    sizes = []

    def counted(n, entries, kind):
        sizes.append(len(entries or {}))
        return validated(n, entries, kind)

    monkeypatch.setattr(rep_ring, "_validated", counted)
    cohomology.rep_via_induction.cache_clear()
    cohomology._inverse_e.cache_clear()
    reps = [rep_via_induction(14, i) for i in range(8)]
    assert [rep.dimension() for rep in reps] == [betti(14, i) for i in range(8)]
    assert sizes and max(sizes) <= 1


def test_reps_are_honest_modules():
    """The signed sums collapse to nonnegative integer multiplicities."""
    for n in range(0, 9):
        for i in range(0, n // 2 + 1):
            rep = rep_via_induction(n, i)
            assert rep.is_integral()
            assert all(c > 0 for c in rep.coeffs.values())
            assert rep.dimension() == betti(n, i)


def test_dimension_against_betti_to_ten():
    for n in range(0, 11):
        for i in range(0, 6):
            assert rep_via_induction(n, i).dimension() == betti(n, i)


def test_two_routes_agree():
    for n in range(0, 8):
        for i in range(0, n // 2 + 1):
            if 2 * i <= 6:
                assert rep_via_induction(n, i) == rep_via_poset(n, i)


def test_series_degree_one_and_two():
    lhs = cohomology_series_poset(4)
    rhs = cohomology_series_formula(4)
    assert lhs.term(1, 0) == S.h(1) == rhs.term(1, 0)
    assert lhs.term(2, 1) == S(2, {(1, 1): -1})
    assert lhs.term(4, 1) == S(4, {(3, 1): -1, (2, 1, 1): -1})
    assert lhs.term(4, 2) == S(4, {(2, 2): 1, (2, 1, 1): 1})


def test_verify_series_small():
    assert verify_cohomology_series(6)


def test_series_t_equal_one_specialization():
    """Collapsing t to 1 gives the alternating sum on both sides."""
    lhs = substitute_t(cohomology_series_poset(6))
    rhs = substitute_t(cohomology_series_formula(6))
    assert lhs == rhs
    for n in range(1, 7):
        expected = S.zero(n)
        for i in range(0, n // 2 + 1):
            expected = expected + rep_via_induction(n, i).scale((-1) ** i)
        assert lhs.get(n, S.zero(n)) == expected


def test_exponential_specialization():
    rows = exponential_specialization(8)
    assert all(r["ok"] for r in rows)
    by_cell = {(r["n"], r["i"]): r["coefficient"] for r in rows}
    assert by_cell[(2, 1)] == -1
    assert by_cell[(4, 2)] == 5
    assert all(by_cell[(n, 0)] == 1 for n in range(0, 9))
