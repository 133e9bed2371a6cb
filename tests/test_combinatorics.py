from math import comb, factorial

import pytest

from coxtoric import combinatorics
from coxtoric.cohomology import betti
from coxtoric.combinatorics import (
    all_chains,
    class_data,
    conjugate,
    cycle_type_representative,
    enumerate_chains,
    ordered_bell,
    ordered_chains,
    partitions_of,
    secant_numbers,
    stirling2,
    validate_chain,
)
from coxtoric.wonderful_model import euler_characteristic_cells

from oracles import permutation_cycle_type, zigzag_numbers


def brute_force_partitions(n):
    """Oracle: all weakly decreasing positive tuples summing to n."""
    if n == 0:
        return {()}
    found = set()

    def rec(rem, prefix):
        if rem == 0:
            found.add(tuple(prefix))
            return
        cap = prefix[-1] if prefix else rem
        for p in range(1, min(rem, cap) + 1):
            rec(rem - p, prefix + [p])

    rec(n, [])
    return found


@pytest.mark.parametrize("n,count", [(0, 1), (4, 5), (7, 15)])
def test_partition_counts(n, count):
    assert len(partitions_of(n)) == count


def test_partitions_against_brute_force():
    for n in range(9):
        got = partitions_of(n)
        assert set(got) == brute_force_partitions(n)
        assert len(set(got)) == len(got)
        assert list(got) == sorted(got, reverse=True)  # reverse-lexicographic


def test_conjugate():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((2, 1, 1)) == (3, 1)
    assert conjugate(()) == ()
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_secant_numbers():
    assert secant_numbers(0) == [1]
    assert secant_numbers(8) == [1, 1, 5, 61, 1385]
    with pytest.raises(ValueError):
        secant_numbers(3)


def test_secant_matches_zigzag_recurrence():
    zig = zigzag_numbers(300)
    sec = secant_numbers(300)
    assert sec == [zig[2 * i] for i in range(151)]
    assert zig[:6] == [1, 1, 1, 2, 5, 16]


@pytest.mark.parametrize("n,m,count", [(2, 2, 2), (3, 2, 6), (4, 1, 1)])
def test_chain_counts(n, m, count):
    chains = enumerate_chains(n, m)
    assert len(chains) == count
    for chain in chains:
        validate_chain(chain)
        assert len(chain) == m + 1


def test_full_flags_are_permutations():
    for n in range(1, 8):
        assert len(enumerate_chains(n, n)) == factorial(n)


def test_chain_totals_match_ordered_bell():
    for n in range(1, 7):
        total = sum(len(enumerate_chains(n, m)) for m in range(1, n + 1))
        assert total == ordered_bell(n)
        assert total == len(all_chains(n))
        assert total == sum(factorial(m) * stirling2(n, m) for m in range(1, n + 1))


def test_cold_counts_do_not_recurse(monkeypatch):
    """From empty tables, n = 600 is one bottom-up pass: a recursive cache
    overflows the stack on a cold call from about n = 500."""
    monkeypatch.setattr(combinatorics, "_STIRLING", [[1]])
    assert euler_characteristic_cells(600) == sum((-1) ** i * betti(600, i) for i in range(301))
    assert stirling2(600, 601) == stirling2(600, -1) == 0
    monkeypatch.setattr(combinatorics, "_STIRLING", [[1]])
    assert ordered_bell(600) > ordered_bell(599) > 0


def test_ordered_bell_first_block_recurrence():
    """a(n) = sum over k = 1..n of C(n, k) a(n - k), the first block having
    k elements, and a(n) = 0 for n < 0."""
    bell = [1]
    for n in range(1, 80):
        bell.append(sum(comb(n, k) * bell[n - k] for k in range(1, n + 1)))
    assert [ordered_bell(n) for n in range(80)] == bell
    assert ordered_bell(-1) == 0


def test_chain_m_counts_match_stirling():
    for n in range(1, 7):
        for m in range(1, n + 1):
            count = len(enumerate_chains(n, m))
            assert count == ordered_chains(n, m) == factorial(m) * stirling2(n, m)


def test_enumerate_chains_bounds():
    with pytest.raises(ValueError):
        enumerate_chains(3, 0)
    with pytest.raises(ValueError):
        enumerate_chains(3, 4)


def test_class_data():
    assert class_data((1, 1, 1, 1)) == (24, 1)
    assert class_data((4,)) == (4, 6)
    assert class_data((2, 1)) == (2, 3)
    for n in range(1, 9):
        assert sum(class_data(mu)[1] for mu in partitions_of(n)) == factorial(n)


def test_cycle_type_representative():
    for n in range(1, 8):
        for mu in partitions_of(n):
            w = cycle_type_representative(mu)
            assert sorted(w) == list(range(1, n + 1))
            assert permutation_cycle_type(w) == mu
