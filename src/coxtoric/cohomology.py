"""Betti numbers and symmetric group representations on the cohomology of the
real toric variety of the type-A reflection arrangement fan.

Two fully independent pipelines produce the representation on each H^i:

* the induction formula: H^i is (-1)^i times the t^i coefficient of
  (sum h_n) * (1 + sum e_{2k} t^k)^-1, that is (-1)^i h_{n-2i} R_{2i}. R_{2i}
  is omega of the degree-2i term of (1 + sum h_{2k})^-1 from rep_ring's cached
  recurrence even_series_inverse, the same term the right side of
  verify-poset-series reads. The test suite keeps the expanded signed sum over
  ordered tuples of even parts as its oracle.
* the poset route: the Hopf trace gives the character of the top homology of
  the even-subset lattice, counted by orbit class of fixed sets; the order
  complex's matching must give that homology in the top degree alone, with
  the trace at the identity as its rank. The character is twisted by sign,
  induced up on the character side by rep_ring.induce_trivial and decomposed
  by Murnaghan-Nakayama values. No Pieri rule is used, so the routes share
  no step.

This module holds both series identities the verify commands check.
verify-cohomology compares the two routes degreewise inside a t-series
(cohomology_series_poset against cohomology_series_formula);
verify-poset-series compares the alternating top interval homologies with
the inverse of 1 + sum h_{2k} (poset_series_sides). Together with the
closed-form Betti numbers A_{2i} * C(n, 2i), they are the contract the
acceptance suite pins.
"""

from __future__ import annotations

from math import comb

from . import poset_homology
from .combinatorics import secant_numbers
from .rep_ring import (ClassFunction, RepSeries, SchurVector, decompose, even_series_inverse,
                       induce_trivial, omega, pieri_h)

FORMULA_DEGREE_LIMIT = 12


def betti(n: int, i: int) -> int:
    """dim H^i for the n-th variety: A_{2i} * C(n, 2i)."""
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if 2 * i > n:
        return 0
    return secant_numbers(2 * i)[-1] * comb(n, 2 * i)


def rep_via_induction(n: int, i: int) -> SchurVector:
    """Representation on H^i from the signed induction formula.

    H^i is (-1)^i times the t^i coefficient of (sum h_n) * (1 + sum e_{2k} t^k)^-1
    in degree n, that is (-1)^i h_{n-2i} * R_{2i}. R_{2i} is omega of
    even_series_inverse(2i), the term of (1 + sum h_{2k})^-1, since omega swaps
    h_k and e_k and is a ring automorphism. The test suite checks it against
    the expanded form, a signed sum over ordered tuples of even parts summing
    to 2i.
    """
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if 2 * i > n:
        return SchurVector.zero(n)
    vec = pieri_h(omega(even_series_inverse(2 * i)), n - 2 * i)
    return -vec if i % 2 else vec


def rep_via_poset(n: int, i: int) -> SchurVector:
    """Representation on H^i from interval homology: the sign-twisted top
    homology below a 2i-set, induced up with a trivial factor on the character
    side and decomposed. On a cycle type nu of 2 * i the sign is (-1)^len(nu).
    An interval above MAX_BRUTE_FORCE_BOUND raises ValueError before any chain
    is built."""
    if n < 0 or i < 0:
        raise ValueError("n and i must be nonnegative")
    if 2 * i > n:
        return SchurVector.zero(n)
    top = poset_homology.equivariant_top_character(2 * i)
    twisted = ClassFunction._of(2 * i, {nu: (-1) ** len(nu) * c for nu, c in top.values.items()})
    return decompose(induce_trivial(twisted, n))


def _signed_series(N: int, rep) -> RepSeries:
    """1 + sum over 1 <= n <= N of sum over i of rep(n, i) * (-t)^i."""
    series = RepSeries.one(N)
    for n in range(1, N + 1):
        for i in range(0, n // 2 + 1):
            vec = rep(n, i)
            series.add_term(n, i, -vec if i % 2 else vec)
    return series


def cohomology_series_poset(N: int) -> RepSeries:
    """1 + sum over n of sum over i of H^i * (-t)^i, poset route. The largest
    interval, of size 2 * (N // 2), is asked for first: an N past the interval
    gate raises ValueError before any other interval is built."""
    poset_homology.homology_ranks(2 * (N // 2))
    return _signed_series(N, rep_via_poset)


def cohomology_series_formula(N: int) -> RepSeries:
    """(sum of h_n) times the inverse of (1 + sum over even n of e_n t^{n/2}),
    cell by cell from the induction route."""
    return _signed_series(N, rep_via_induction)


def verify_cohomology_series(N: int = 8) -> bool:
    """Degreewise equality in n and t of the poset and formula series."""
    return cohomology_series_poset(N) == cohomology_series_formula(N)


def poset_series_sides(N: int):
    """Both sides of the inverse-series identity for top interval homology,
    as maps even degree -> SchurVector through degree N.

    Left: 1 + sum over even n of (-1)^{n/2} (top homology below [n]), with the
    homology characters computed by the order-complex route. Right: the series
    inverse of 1 + sum over even n >= 2 of h_n, from the cached
    even_series_inverse(n), whose omega rep_via_induction reads. The largest
    interval is asked for first, as in cohomology_series_poset.
    """
    poset_homology.homology_ranks(2 * (N // 2))
    lhs = {n: -poset_homology.top_interval_representation(n) if n % 4
           else poset_homology.top_interval_representation(n) for n in range(0, N + 1, 2)}
    rhs = {n: even_series_inverse(n) for n in range(0, N + 1, 2)}
    return lhs, rhs
