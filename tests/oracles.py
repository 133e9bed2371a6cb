"""Reference implementations that only the test suite runs.

Each oracle reaches its answer by a route of its own: none is rewritten to
call the code it checks, so a test that compares the two compares
independent computations. The file name does not match pytest's test_*.py
pattern, so it is imported by the tests and never collected itself.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from coxtoric.cohomology import betti, cohomology_series_poset
from coxtoric.combinatorics import Partition, partitions_of, validate_chain
from coxtoric.cup_product import degree_one_class, permute_basis_key
from coxtoric.poset_homology import IntervalComplex, poset_series_sides
from coxtoric.rep_ring import (
    ClassFunction,
    RepSeries,
    SchurVector,
    _summed,
)
from coxtoric.wonderful_model import ModelPoint, SubsetChain, _stage


# Combinatorics


def zigzag_numbers(max_index: int) -> list[int]:
    """Zigzag numbers 1, 1, 1, 2, 5, 16, 61, ... by the boustrophedon recurrence.

    Independent of the series route: the even-index entries are the secant
    numbers, the odd-index entries the tangent numbers.
    """
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    rows = [[1]]
    for n in range(1, max_index + 1):
        prev = rows[-1]
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        rows.append(row)
    return [rows[n][n] for n in range(max_index + 1)]


def permutation_cycle_type(w: tuple[int, ...]) -> Partition:
    n = len(w)
    seen = [False] * (n + 1)
    lengths = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = w[j - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# Linear algebra


def boundary_product_is_zero(cols_d, cols_dm1) -> bool:
    """Check that composing two boundary maps (given as column dicts) is zero."""
    for col in cols_d:
        acc: dict[int, int] = {}
        for mid, v in col.items():
            for low, w in cols_dm1[mid].items():
                acc[low] = acc.get(low, 0) + v * w
        if any(acc.values()):
            return False
    return True


# Representation ring


def class_induction_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """Induction product on the character side, by splitting cycle types.

    The value on mu is a sum over sub-multisets nu of mu of the right degree,
    weighted by products of binomials in the part multiplicities. Serves as an
    oracle that never touches Pieri strips.
    """
    n = f.n + g.n
    values: dict[Partition, Fraction] = {}
    for mu in partitions_of(n):
        mult = Counter(mu)
        parts = sorted(mult)
        total = Fraction(0)

        def rec(idx, remaining, chosen, weight):
            nonlocal total
            if idx == len(parts):
                if remaining == 0:
                    nu = tuple(sorted(chosen, reverse=True))
                    kappa_counter = mult - Counter(chosen)
                    kappa = tuple(sorted(kappa_counter.elements(), reverse=True))
                    fv = f(nu)
                    gv = g(kappa)
                    if fv and gv:
                        total += weight * fv * gv
                return
            p = parts[idx]
            for j in range(min(mult[p], remaining // p) + 1):
                rec(idx + 1, remaining - p * j, chosen + [p] * j,
                    weight * comb(mult[p], j))

        rec(0, f.n, [], Fraction(1))
        values[mu] = total
    return ClassFunction(n, values)


def substitute_t(series: RepSeries) -> dict[int, SchurVector]:
    """Collapse t -> 1: degree n -> sum of all t-power cells."""
    out = _summed((n, vec) for (n, _), vec in series.terms.items())
    return {n: v for n, v in out.items() if not v.is_zero()}


# Poset homology


def euler_characteristic(cx: IntervalComplex) -> int:
    """Reduced Euler characteristic (the empty chain counts in degree -1)."""
    return sum((-1) ** d * len(chains) for d, chains in cx.chains.items())


def verify_poset_series_identity(N: int) -> bool:
    """Degreewise equality of the two sides of the inverse-series identity."""
    lhs, rhs = poset_series_sides(N)
    keys = set(lhs) | set(rhs)
    return all(lhs.get(k, SchurVector.zero(k)) == rhs.get(k, SchurVector.zero(k))
               for k in keys)


# Cohomology


def exponential_specialization(N: int = 8) -> list[dict]:
    """Dimension specialization of the cohomology series, checked cell by cell
    against the exact expansion of exp(x) * sech(t^(1/2) x), whose t^i x^n / n!
    coefficient is (-1)^i A_{2i} C(n, 2i) = (-1)^i betti(n, i).

    Returns one row per (n, i) with the series coefficient of t^i x^n / n!
    from both routes and an ok flag.
    """
    series = cohomology_series_poset(N)
    rows = []
    for n in range(0, N + 1):
        for i in range(0, n // 2 + 1):
            vec = series.term(n, i)
            actual = vec.dimension()
            expected = (-1) ** i * betti(n, i)
            rows.append({
                "n": n,
                "i": i,
                "coefficient": actual,
                "expected": expected,
                "ok": actual == expected,
            })
    return rows


# Model geometry


def satisfies_closure_equations(p: ModelPoint, chain: SubsetChain) -> bool:
    """Closed conditions holding identically on the orbit of the chain.

    For every nonempty I, with K_s the last chain block containing I, the
    I-component must vanish on I intersected with K_{s+1}. Restricting I to
    the chain blocks themselves is not enough: the conditions induced on the
    other components are what separate same-dimension strata.
    """
    validate_chain(chain)
    if len(chain[0]) != p.n:
        raise ValueError("chain and point sizes differ")
    for subset, coords in p.components.items():
        nxt = chain[_stage(chain, subset) + 1]
        for k, coord in zip(sorted(subset), coords):
            if k in nxt and coord != 0:
                return False
    return True


# Cup products


def permute_degree_one(w, pair) -> tuple[tuple[int, int], int]:
    """Relabelling action on a degree-one class, in normal form."""
    i, j = pair
    return degree_one_class(w[i - 1], w[j - 1])


def act_on_degree_two(w, terms: dict) -> dict:
    out: dict = {}
    for key, coeff in terms.items():
        new_key, sign = permute_basis_key(w, key)
        out[new_key] = out.get(new_key, Fraction(0)) + sign * coeff
    return {k: v for k, v in out.items() if v}
