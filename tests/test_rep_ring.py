import random
from fractions import Fraction
from math import comb

import pytest

from coxtoric.cohomology import rep_via_induction
from coxtoric.combinatorics import partitions_of
from coxtoric.cup_product import _signed_permutation_character, cup_span_representation
from coxtoric.poset_homology import equivariant_top_character, whitney_homology
from coxtoric.rep_ring import (
    ClassFunction,
    RepSeries,
    SchurVector,
    character_table,
    decompose,
    even_series_inverse,
    h_expansion,
    irrep_dimension,
    omega,
    pieri_e,
    pieri_h,
    restrict,
    schur_multiply,
    to_class_function,
)

from oracles import class_induction_product, substitute_t

S = SchurVector


def random_vector(n, rng, span=3):
    parts = partitions_of(n)
    return S(n, {lam: rng.randint(-span, span) for lam in rng.sample(parts, min(3, len(parts)))})


def oracle_h(v, k):
    """Induce with a trivial factor on the character side, then decompose."""
    return decompose(class_induction_product(to_class_function(v), ClassFunction.trivial(k)))


def oracle_e(v, k):
    return decompose(class_induction_product(to_class_function(v), ClassFunction.sign(k)))


def test_pieri_h_examples():
    assert pieri_h(S.unit(), 3) == S.h(3)
    assert pieri_h(S(1, {(1,): 1}), 1) == S(2, {(2,): 1, (1, 1): 1})
    assert pieri_h(S(2, {(2,): 1}), 2) == S(4, {(4,): 1, (3, 1): 1, (2, 2): 1})


def test_pieri_e_examples():
    assert pieri_e(S.unit(), 3) == S.e(3)
    assert pieri_e(S(2, {(1, 1): 1}), 2) == S(4, {(2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1})


def test_pieri_against_character_oracle():
    """Every Pieri product of total degree <= 7 matches subgroup induction."""
    for a in range(0, 8):
        for lam in partitions_of(a):
            v = S(a, {lam: 1})
            for k in range(0, 8 - a):
                assert pieri_h(v, k) == oracle_h(v, k), (lam, k)
                assert pieri_e(v, k) == oracle_e(v, k), (lam, k)


def test_omega():
    assert omega(S.h(4)) == S.e(4)
    assert omega(S(3, {(2, 1): 1})) == S(3, {(2, 1): 1})
    rng = random.Random(7)
    for n in range(0, 7):
        v = random_vector(n, rng)
        assert omega(omega(v)) == v
        for k in range(0, 3):
            assert omega(pieri_h(v, k)) == pieri_e(omega(v), k)


def test_omega_ring_homomorphism():
    rng = random.Random(11)
    for n in range(0, 6):
        v = random_vector(n, rng)
        for k in range(0, 9 - n):
            assert omega(pieri_h(v, k)) == pieri_e(omega(v), k)


def test_character_values():
    def chi(lam, mu):
        return to_class_function(S(sum(lam), {lam: 1}))(mu)

    for n in range(1, 7):
        for mu in partitions_of(n):
            assert chi((n,), mu) == 1
    assert chi((1, 1), (2,)) == -1
    assert chi((2, 1), (1, 1, 1)) == 2
    assert irrep_dimension((2, 1)) == 2
    assert irrep_dimension((3, 1)) == 3


def test_character_orthonormality():
    for n in range(1, 8):
        table = character_table(n)
        for lam in partitions_of(n):
            f = ClassFunction(n, table[lam])
            for nu in partitions_of(n):
                g = ClassFunction(n, table[nu])
                assert f.inner(g) == (1 if lam == nu else 0)


def test_inner_product_stays_exact():
    """A quotient that is not whole comes back as a Fraction, never a float."""
    value = ClassFunction(3, {(3,): 1}).inner(ClassFunction.trivial(3))
    assert value == Fraction(1, 3)
    assert type(value) is Fraction


def test_integer_values_stay_int():
    """Coefficients and character values that are integers are ints, from
    both routes and the cup span."""
    vectors = [cup_span_representation(n) for n in range(4, 8)]
    for n in range(0, 9):
        vectors += [rep_via_induction(n, i) for i in range(n // 2 + 1)]
        vectors += [whitney_homology(n, i) for i in range(n // 2 + 1)]
    values = [c for v in vectors for c in v.coeffs.values()]
    for n in range(0, 9, 2):
        values += equivariant_top_character(n).values.values()
    for n in range(1, 8):
        values += _signed_permutation_character(n).values.values()
    assert {type(c) for c in values} == {int}


def test_permutation_character_decomposition():
    """Natural action on [n]: fixed points per class decompose as expected."""
    for n in (3, 4, 5):
        values = {mu: sum(1 for p in mu if p == 1) for mu in partitions_of(n)}
        perm_char = ClassFunction(n, values)
        assert decompose(perm_char) == S(n, {(n,): 1, (n - 1, 1): 1})
        # Burnside: the average number of fixed points is the orbit count
        assert perm_char.inner(ClassFunction.trivial(n)) == 1


def test_constant_function_is_trivial():
    for n in (2, 3, 4):
        assert decompose(ClassFunction.trivial(n)) == S(n, {(n,): 1})


def test_class_function_round_trip():
    rng = random.Random(3)
    for n in range(0, 7):
        v = random_vector(n, rng)
        assert decompose(to_class_function(v)) == v


def test_decompose_reports_non_integral():
    f = ClassFunction(2, {(2,): Fraction(1), (1, 1): Fraction(0)})
    v = decompose(f)
    assert not v.is_integral()


def test_restrict():
    assert restrict(S.h(4)) == S.h(3)
    assert restrict(S(3, {(2, 1): 1})) == S(2, {(2,): 1, (1, 1): 1})
    rng = random.Random(5)
    for n in range(1, 8):
        v = random_vector(n, rng)
        assert restrict(v).dimension() == v.dimension()
    with pytest.raises(ValueError):
        restrict(S.unit())


def test_dimension_multiplicative():
    rng = random.Random(9)
    for n in range(0, 6):
        v = random_vector(n, rng)
        for k in range(0, 9 - n):
            assert pieri_h(v, k).dimension() == comb(n + k, k) * v.dimension()
            assert pieri_e(v, k).dimension() == comb(n + k, k) * v.dimension()


def test_h_expansion_reconstructs():
    for n in range(0, 7):
        for lam in partitions_of(n):
            acc = S.zero(n)
            for nu, c in h_expansion(lam):
                term = S.unit()
                for part in nu:
                    term = pieri_h(term, part)
                acc = acc + term.scale(c)
            assert acc == S(n, {lam: 1})


def test_schur_multiply_general():
    u = S(3, {(2, 1): 1})
    expected = S(6, {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2,
                     (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1})
    assert schur_multiply(u, u) == expected
    # cross-check the slow path against the character oracle
    oracle = decompose(class_induction_product(to_class_function(u), to_class_function(u)))
    assert oracle == expected


def test_schur_multiply_against_character_oracle():
    """Random products of total degree <= 4, including the degree-0 and
    one-row constituents that go through h_expansion."""
    rng = random.Random(17)
    for _ in range(40):
        a = rng.randint(0, 4)
        b = rng.randint(0, 4 - a)
        u, v = random_vector(a, rng), random_vector(b, rng)
        oracle = decompose(class_induction_product(to_class_function(u), to_class_function(v)))
        assert schur_multiply(u, v) == oracle, (u, v)


def test_series_invert_random():
    """Seeded series with two t-powers in every positive degree and general
    cells, so inversion must keep each cell's t-power apart."""
    rng = random.Random(23)
    N = 6
    for _ in range(3):
        terms = {(0, 0): S.unit()}
        for n in range(1, N + 1):
            for tpow in rng.sample(range(4), 2):
                terms[(n, tpow)] = random_vector(n, rng)
        s = RepSeries(N, terms)
        assert s * s.invert() == RepSeries.one(N)


def test_series_invert_geometric():
    s = RepSeries(4, {(0, 0): S.unit(), (2, 1): S.e(2)})
    inv = s.invert()
    assert inv.term(2, 1) == S(2, {(1, 1): -1})
    assert inv.term(4, 2) == S(4, {(2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1})
    assert s * inv == RepSeries.one(4)


def test_series_h_self_inverse():
    N = 8
    H = RepSeries(N, {(n, 0): S.h(n) for n in range(N + 1)})
    assert H * H.invert() == RepSeries.one(N)


def test_even_series_inverse_matches_general_inverse():
    """The one Pieri recurrence gives every cell of the general RepSeries
    inverse through degree 12: the t^0 cells for the h-series, the t^(d/2)
    cells for the e-series, and zero in odd degree."""
    N = 12
    for pieri, unit, tpow in ((pieri_h, S.h, lambda d: 0), (pieri_e, S.e, lambda d: d // 2)):
        series = RepSeries(N, {(d, tpow(d)): unit(d) for d in range(0, N + 1, 2)})
        expected = {(d, tpow(d)): even_series_inverse(d, pieri) for d in range(N + 1)}
        assert series.invert().terms == {key: v for key, v in expected.items() if not v.is_zero()}
        assert all(expected[(d, tpow(d))].is_zero() for d in range(1, N + 1, 2))


def test_series_invert_rejects_bad_constant():
    with pytest.raises(ValueError):
        RepSeries(3, {(0, 0): S(0, {(): 2})}).invert()
    with pytest.raises(ValueError):
        RepSeries(3, {(1, 0): S.h(1)}).invert()


def test_series_substitute_t():
    s = RepSeries(4, {(0, 0): S.unit(), (2, 0): S.h(2), (2, 1): S.e(2)})
    collapsed = substitute_t(s)
    assert collapsed[2] == S.h(2) + S.e(2)


def test_class_function_self_inner_nonnegative():
    rng = random.Random(13)
    for n in range(1, 7):
        v = random_vector(n, rng)
        f = to_class_function(v)
        assert f.inner(f) >= 0


def test_schur_vector_validation():
    with pytest.raises(ValueError):
        S(3, {(2, 2): 1})
    with pytest.raises(ValueError):
        S(3, {(1, 2): 1})
    with pytest.raises(ValueError):
        S(2, {(2,): 1}) + S(3, {(3,): 1})


def test_class_function_validation():
    with pytest.raises(ValueError, match=r"cycle type \(2, 2\) does not have degree 3"):
        ClassFunction(3, {(2, 2): 1})
    with pytest.raises(ValueError, match="not a partition"):
        ClassFunction(3, {(1, 2): 1})


def _assert_trusted_output_valid(vec):
    assert all(type(c) in (int, Fraction) and c for c in vec.coeffs.values()), vec.coeffs
    assert vec == S(vec.n, dict(vec.coeffs))  # the validated constructor agrees


def test_trusted_constructor_outputs_match_validated():
    """pieri_h, pieri_e, +, -, restrict and omega build through SchurVector._of
    and skip validation; on seeded inputs mixing ints and Fractions, with
    cancelling sums, each output is what the validating constructor builds
    from the same dict."""
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 7)
        parts = partitions_of(n)
        u = S(n, {lam: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
                  for lam in rng.sample(parts, min(4, len(parts)))})
        # v cancels u on some constituents, so the sum drops zero coefficients
        v = S(n, {lam: -c if rng.random() < 0.5 else rng.randint(1, 2)
                  for lam, c in u.coeffs.items()})
        k = rng.randint(0, 3)
        outputs = (pieri_h(u, k), pieri_e(u, k), u + v, u - v, -u, u + (-u),
                   restrict(u), omega(u))
        for out in outputs:
            _assert_trusted_output_valid(out)
        assert (u + (-u)).is_zero()
        assert u + v == S(n, {lam: u.coeffs.get(lam, 0) + v.coeffs.get(lam, 0)
                              for lam in parts})
