"""The model layer's comparison rule over generated operands: _products_equal
decides a*b == c*d from integer cross-products, and must agree with Fraction
arithmetic on ints and Fractions of either sign, zero and large."""

from fractions import Fraction

import pytest

from coxtoric.wonderful_model import _products_equal

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BIG = 10 ** 40
INTS = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
VALUES = st.one_of(INTS, st.builds(Fraction, INTS, INTS.filter(bool)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(VALUES, VALUES, VALUES, VALUES)
def test_products_equal_is_fraction_arithmetic(a, b, c, d):
    assert _products_equal(a, b, c, d) is (Fraction(a) * b == Fraction(c) * d)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(VALUES, VALUES, VALUES)
def test_equal_products_are_found(a, b, k):
    """Sides equal by construction, given as ints where they are integral,
    and one side moved off by one."""
    def plain(x):
        return x.numerator if x.denominator == 1 else x

    left, right = plain(Fraction(a) * k), plain(Fraction(b) * k)
    assert _products_equal(left, b, a, right)
    moved = right + 1
    assert _products_equal(left, b, a, moved) is (Fraction(left) * b == Fraction(a) * moved)
    assert _products_equal(a, b, b, a)  # shared operands
    assert _products_equal(a, 0, 0, b) and _products_equal(0, a, b, 0)
