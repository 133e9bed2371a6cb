"""Betti numbers and symmetric group representations on the cohomology of the
real toric variety of the type-A reflection arrangement fan.

Two fully independent pipelines produce the representation on each H^i:

* the induction formula: H^i is (-1)^i times the t^i coefficient of
  (sum h_n) * (1 + sum e_{2k} t^k)^-1. The inverse is built once by the
  recurrence R_0 = 1, R_{2i} = -(sum over k of e_{2k} R_{2i-2k}) with Pieri
  products, and H^i = (-1)^i h_{n-2i} R_{2i}. The test suite keeps the
  expanded signed sum over ordered tuples of even parts as its oracle.
* the poset route, inducing the sign-twisted top homology of the even-subset
  lattice computed from order complexes.

Their degreewise agreement inside a t-series, together with the closed-form
Betti numbers A_{2i} * C(n, 2i), is the contract the acceptance suite pins.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .combinatorics import secant_numbers
from .poset_homology import top_interval_representation
from .rep_ring import RepSeries, SchurVector, omega, pieri_e, pieri_h

FORMULA_DEGREE_LIMIT = 12


def betti(n: int, i: int) -> int:
    """dim H^i for the n-th variety: A_{2i} * C(n, 2i)."""
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if 2 * i > n:
        return 0
    return secant_numbers(2 * i)[-1] * comb(n, 2 * i)


@lru_cache(maxsize=None)
def _inverse_e(degree: int) -> SchurVector:
    """Degree-`degree` coefficient R of (1 + sum over k of e_{2k} t^k)^-1 for
    even `degree`: R_0 = 1 and R_{2i} = -(sum over k of e_{2k} R_{2i-2k})."""
    if degree == 0:
        return SchurVector.unit()
    acc = SchurVector.zero(degree)
    for part in range(2, degree + 1, 2):
        acc = acc - pieri_e(_inverse_e(degree - part), part)
    return acc


@lru_cache(maxsize=None)
def rep_via_induction(n: int, i: int) -> SchurVector:
    """Representation on H^i from the signed induction formula.

    H^i is (-1)^i times the t^i coefficient of (sum h_n) * (1 + sum e_{2k} t^k)^-1
    in degree n, that is (-1)^i h_{n-2i} * R_{2i} with R_{2i} from the cached
    series-inverse recurrence. The test suite checks it against the expanded
    form, a signed sum over ordered tuples of even parts summing to 2i.
    """
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if 2 * i > n:
        return SchurVector.zero(n)
    vec = pieri_h(_inverse_e(2 * i), n - 2 * i)
    return -vec if i % 2 else vec


def rep_via_poset(n: int, i: int) -> SchurVector:
    """Representation on H^i from interval homology: the sign-twisted top
    homology below a 2i-set, induced up with a trivial factor. An interval
    above MAX_BRUTE_FORCE_BOUND raises ValueError before any chain is built."""
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if 2 * i > n:
        return SchurVector.zero(n)
    return pieri_h(omega(top_interval_representation(2 * i)), n - 2 * i)


def _signed_series(N: int, rep) -> RepSeries:
    """1 + sum over 1 <= n <= N of sum over i of rep(n, i) * (-t)^i."""
    series = RepSeries.one(N)
    for n in range(1, N + 1):
        for i in range(0, n // 2 + 1):
            vec = rep(n, i)
            series.add_term(n, i, -vec if i % 2 else vec)
    return series


def cohomology_series_poset(N: int) -> RepSeries:
    """1 + sum over n of sum over i of H^i * (-t)^i, poset route."""
    return _signed_series(N, rep_via_poset)


def cohomology_series_formula(N: int) -> RepSeries:
    """(sum of h_n) times the inverse of (1 + sum over even n of e_n t^{n/2}),
    cell by cell from the induction route."""
    return _signed_series(N, rep_via_induction)


def verify_cohomology_series(N: int = 8) -> bool:
    """Degreewise equality in n and t of the poset and formula series."""
    return cohomology_series_poset(N) == cohomology_series_formula(N)
