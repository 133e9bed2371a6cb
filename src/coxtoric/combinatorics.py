"""Partitions, subset chains, secant numbers, and conjugacy class data.

Ground sets are {1, ..., n}. Subsets travel as frozensets internally and as
sorted integer lists in JSON; partitions are weakly decreasing tuples of
positive integers, ordered reverse-lexicographically everywhere.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

Partition = tuple[int, ...]
SubsetChain = tuple[frozenset, ...]


def is_partition(parts) -> bool:
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic, (n) first and (1,...,1) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


_SECANTS = [1]  # A_0, A_2, ...: secant_numbers extends it, each computed once


def secant_numbers(max_index: int) -> list[int]:
    """Secant numbers A_0, A_2, ..., A_{max_index}: 1, 1, 5, 61, 1385, ...

    A_{2k} is (2k)! times the x^{2k} coefficient of sec(x). Comparing the
    x^{2k} coefficients of sec(x) * cos(x) = 1 gives the integer recurrence
    A_{2k} = sum over j = 1..k of (-1)^(j+1) C(2k, 2j) A_{2k-2j}.
    """
    if max_index < 0 or max_index % 2:
        raise ValueError("max_index must be even and nonnegative")
    for k in range(len(_SECANTS), max_index // 2 + 1):
        _SECANTS.append(sum((-1) ** (j + 1) * comb(2 * k, 2 * j) * _SECANTS[k - j]
                            for j in range(1, k + 1)))
    return _SECANTS[:max_index // 2 + 1]


def enumerate_chains(n: int, m: int) -> list[SubsetChain]:
    """All chains [n] = K_1 > K_2 > ... > K_{m+1} = {} with strict containments.

    The successive differences K_l \\ K_{l+1} form an ordered set partition of
    [n] into m nonempty blocks, so there are m! * S(n, m) chains. Proper
    subsets are visited by descending cardinality, then lexicographically.
    """
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    top = frozenset(range(1, n + 1))

    def descend(current, steps):
        if steps == 1:
            yield (frozenset(),)
            return
        elems = sorted(current)
        for size in range(len(elems) - 1, 0, -1):
            for sub in combinations(elems, size):
                s = frozenset(sub)
                for rest in descend(s, steps - 1):
                    yield (s,) + rest

    return [(top,) + rest for rest in descend(top, m)]


def all_chains(n: int) -> list[SubsetChain]:
    """Every strict chain from [n] to the empty set, grouped by increasing m."""
    out = []
    for m in range(1, n + 1):
        out.extend(enumerate_chains(n, m))
    return out


_STIRLING = [[1]]  # row n holds S(n, 0..n): stirling2 extends it bottom-up


def ordered_chains(k: int, m: int) -> int:
    """Chains from a k-set down to the empty set in m steps: m! * S(k, m)."""
    return factorial(m) * stirling2(k, m)


def ordered_bell(n: int) -> int:
    """Ordered set partitions of [n]: the sum over blocks m of m! S(n, m)."""
    return sum(ordered_chains(n, m) for m in range(n + 1))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if not 0 <= k <= n:
        return 0
    for m in range(len(_STIRLING), n + 1):
        prev = _STIRLING[-1]
        _STIRLING.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, m)] + [1])
    return _STIRLING[n][k]


def class_data(mu: Partition) -> tuple[int, int]:
    """Centralizer order z_mu = prod i^{m_i} m_i! and the class size n!/z_mu."""
    mu = check_partition(mu)
    n = sum(mu)
    z = 1
    for part, mult in Counter(mu).items():
        z *= part ** mult * factorial(mult)
    return z, factorial(n) // z


def cycle_type_representative(mu: Partition) -> tuple[int, ...]:
    """A permutation of [n] with cycle type mu, as the tuple of images of 1..n."""
    mu = check_partition(mu)
    images = []
    start = 1
    for part in mu:
        block = list(range(start, start + part))
        for idx in range(part):
            images.append(block[(idx + 1) % part])
        start += part
    return tuple(images)


def apply_permutation(w: tuple[int, ...], subset: frozenset) -> frozenset:
    return frozenset(w[i - 1] for i in subset)


def validate_chain(chain: SubsetChain) -> None:
    if len(chain) < 2:
        raise ValueError("a chain has at least two blocks")
    n = len(chain[0])
    if chain[0] != frozenset(range(1, n + 1)):
        raise ValueError("first block must be [n]")
    if chain[-1]:
        raise ValueError("last block must be empty")
    for a, b in zip(chain, chain[1:]):
        if not (b < a):
            raise ValueError("blocks must strictly decrease")
