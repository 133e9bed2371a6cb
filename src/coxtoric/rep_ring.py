"""Arithmetic in the completed direct sum of symmetric group representation rings.

Elements live in the Schur basis: a SchurVector maps partitions of a fixed
degree n to rational coefficients, and the graded product is the induction
product, computed by Pieri expansions. Class functions mirror the same data on
the character side; converting back and forth goes through Murnaghan-Nakayama
character values and provides an independent route for every product, which
the test suite exploits as an oracle.

Series inverses come from one cached Pieri recurrence, even_series_inverse.
RepSeries adjoins a variable t and truncates total degree; its general product
and inverse (schur_multiply, h_expansion) are only the tests' reference.

Every sum of coefficients by key goes through _summed. A value is an int unless
a division or an input makes it rational: _exact, the one division (by n! in
decompose and inner), returns an int when the quotient is whole, and the
validating constructor keeps ints and Fractions and reads the rest as Fractions.

Two constructors build a SchurVector. The public SchurVector(n, coeffs) and
scale validate: every key must be a partition of n, and every coefficient is
read as above. The trusted SchurVector._of(n, coeffs) only drops zero
coefficients. It serves the rules whose output is valid by construction, given
valid input: _pieri (pieri_h, pieri_e), __add__, __neg__, restrict and omega.
Their keys are strips added to, corners removed from, or conjugates of
partitions, and their coefficients are sums and negatives of ints and
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial

from .combinatorics import (
    Partition,
    check_partition,
    class_data,
    conjugate,
    partitions_of,
)


def _summed(pairs) -> dict:
    """Sum the coefficients of (key, coefficient) pairs that share a key, each
    sum starting from its key's first coefficient."""
    out = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return out


def _exact(num, den: int):
    """num / den as an int when den divides num, else as a Fraction."""
    quotient, remainder = divmod(num, den)
    return Fraction(num, den) if remainder else quotient


def _validated(n: int, entries, kind: str) -> dict:
    """Nonzero ints and Fractions keyed by partitions of n; kind names a bad key."""
    clean = {}
    for lam, c in (entries or {}).items():
        lam = check_partition(lam)
        if sum(lam) != n:
            raise ValueError(f"{kind} {lam} does not have degree {n}")
        if type(c) not in (int, Fraction):
            c = Fraction(c)
        if c:
            clean[lam] = c
    return clean


class SchurVector:
    """A rational linear combination of partitions of a fixed degree n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs = _validated(n, coeffs, "partition")

    @classmethod
    def _of(cls, n: int, coeffs: dict) -> "SchurVector":
        """Trusted constructor: coeffs already maps partitions of n to ints and
        Fractions, so only the zero coefficients are dropped."""
        vec = object.__new__(cls)
        vec.n = n
        vec.coeffs = {lam: c for lam, c in coeffs.items() if c}
        return vec

    @staticmethod
    def unit() -> "SchurVector":
        return SchurVector(0, {(): 1})

    @staticmethod
    def zero(n: int) -> "SchurVector":
        return SchurVector(n, {})

    @staticmethod
    def h(k: int) -> "SchurVector":
        """Class of the trivial module of S_k."""
        return SchurVector(k, {(k,) if k else (): 1})

    @staticmethod
    def e(k: int) -> "SchurVector":
        """Class of the sign module of S_k."""
        return SchurVector(k, {(1,) * k: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def items(self):
        """Coefficients in reverse-lexicographic partition order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def dimension(self):
        return sum(c * irrep_dimension(lam) for lam, c in self.coeffs.items())

    def __add__(self, other: "SchurVector") -> "SchurVector":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return SchurVector._of(self.n, _summed(
            chain(self.coeffs.items(), other.coeffs.items())))

    def __sub__(self, other: "SchurVector") -> "SchurVector":
        return self + (-other)

    def __neg__(self) -> "SchurVector":
        return SchurVector._of(self.n, {lam: -c for lam, c in self.coeffs.items()})

    def scale(self, scalar) -> "SchurVector":
        return SchurVector(self.n, {lam: scalar * c for lam, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, SchurVector)
                and self.n == other.n and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"SchurVector({self.n}, 0)"
        bits = []
        for lam, c in self.items():
            name = "s[" + ",".join(map(str, lam)) + "]"
            bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits).replace("+ -", "- ")


@lru_cache(maxsize=None)
def irrep_dimension(lam: Partition) -> int:
    """Dimension of the irreducible module for lam, by the hook length formula."""
    n = sum(lam)
    conj = conjugate(lam)
    dim = factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            dim //= row - j + conj[j] - i - 1
    return dim


def _horizontal_strips(lam: Partition, k: int):
    """Partitions mu >= lam with mu/lam a horizontal k-strip."""
    L = len(lam)
    out = []

    def rec(i, rem, acc):
        if i == L:
            if rem == 0:
                out.append(tuple(acc))
            elif L == 0 or rem <= lam[L - 1]:
                out.append(tuple(acc) + (rem,))
            return
        lo = lam[i]
        hi = lo + rem if i == 0 else min(lam[i - 1], lo + rem)
        for mu_i in range(lo, hi + 1):
            rec(i + 1, rem - (mu_i - lo), acc + [mu_i])

    rec(0, k, [])
    return out


def _vertical_strips(lam: Partition, k: int):
    """Partitions mu >= lam with mu/lam a vertical k-strip."""
    L = len(lam)
    out = []

    def rec(i, rem, prev, acc):
        if i == L:
            out.append(tuple(acc) + (1,) * rem)
            return
        for add in (0, 1):
            mu_i = lam[i] + add
            if add <= rem and mu_i <= prev:
                rec(i + 1, rem - add, mu_i, acc + [mu_i])

    rec(0, k, lam[0] + 1 if L else k, [])
    return out


def _pieri(v: SchurVector, k: int, strips) -> SchurVector:
    """Pieri rule: each constituent lam of v spreads its coefficient over the
    partitions strips(lam, k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return SchurVector._of(v.n + k, _summed(
        (mu, c) for lam, c in v.coeffs.items() for mu in strips(lam, k)))


def pieri_h(v: SchurVector, k: int) -> SchurVector:
    """Induction product with the trivial class h_k (horizontal strips)."""
    return _pieri(v, k, _horizontal_strips)


def pieri_e(v: SchurVector, k: int) -> SchurVector:
    """Induction product with the sign class e_k (vertical strips)."""
    return _pieri(v, k, _vertical_strips)


@lru_cache(maxsize=None)
def even_series_inverse(degree: int, pieri) -> SchurVector:
    """Degree-d term R_d of (1 + sum over k >= 1 of x_{2k})^-1, where pieri(v, k)
    multiplies by x_k (h_k for pieri_h, e_k for pieri_e): R_0 = 1 and
    R_d = -(sum over even 2 <= k <= d of pieri(R_{d-k}, k))."""
    if degree == 0:
        return SchurVector.unit()
    acc = SchurVector.zero(degree)
    for part in range(2, degree + 1, 2):
        acc = acc - pieri(even_series_inverse(degree - part, pieri), part)
    return acc


def omega(v: SchurVector) -> SchurVector:
    """Sign twist: the coefficient of lam moves to its conjugate."""
    return SchurVector._of(v.n, {conjugate(lam): c for lam, c in v.coeffs.items()})


def restrict(v: SchurVector) -> SchurVector:
    """Branching to degree n-1: remove one corner box in all possible ways."""
    if v.n < 1:
        raise ValueError("cannot restrict degree 0")
    return SchurVector._of(v.n - 1, _summed(
        (lam[:i] + ((lam[i] - 1,) if lam[i] > 1 else ()) + lam[i + 1:], c)
        for lam, c in v.coeffs.items()
        for i in range(len(lam)) if i == len(lam) - 1 or lam[i] > lam[i + 1]))


@lru_cache(maxsize=None)
def _border_strips(lam: Partition, r: int) -> tuple:
    """Ways to remove a border strip of size r, as (smaller partition, height)."""
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted(bset - {b} | {nb}, reverse=True)
        mu = tuple(newbeta[j] - (L - 1 - j) for j in range(L))
        out.append((tuple(p for p in mu if p > 0), height))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn_value(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not lam else 0
    r, rest = mu[0], mu[1:]
    return sum((-1) ** h * _mn_value(nu, rest) for nu, h in _border_strips(lam, r))


@lru_cache(maxsize=None)
def character_table(n: int) -> dict[Partition, dict[Partition, int]]:
    parts = partitions_of(n)
    return {lam: {mu: _mn_value(lam, mu) for mu in parts} for lam in parts}


class ClassFunction:
    """A rational-valued function on cycle types of S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values=None):
        self.n = n
        self.values = _validated(n, values, "cycle type")

    @staticmethod
    def trivial(n: int) -> "ClassFunction":
        return ClassFunction(n, {mu: 1 for mu in partitions_of(n)})

    @staticmethod
    def sign(n: int) -> "ClassFunction":
        return ClassFunction(n, {mu: (-1) ** (n - len(mu)) for mu in partitions_of(n)})

    def __call__(self, mu: Partition):
        return self.values.get(tuple(mu), 0)

    def inner(self, other: "ClassFunction"):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return _exact(sum(self(mu) * other(mu) * class_data(mu)[1]
                          for mu in partitions_of(self.n)), factorial(self.n))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction)
                and self.n == other.n and self.values == other.values)

    def __repr__(self) -> str:
        vals = {mu: str(v) for mu, v in sorted(self.values.items(), reverse=True)}
        return f"ClassFunction({self.n}, {vals})"


def to_class_function(v: SchurVector) -> ClassFunction:
    """Character of v: on each cycle type, the sum of c times the
    Murnaghan-Nakayama value over v's own constituents only, so a vector with
    few constituents never builds the full character table."""
    return ClassFunction(v.n, {
        mu: sum(c * _mn_value(lam, mu) for lam, c in v.coeffs.items())
        for mu in partitions_of(v.n)})


def decompose(f: ClassFunction) -> SchurVector:
    """Inverse of to_class_function; multiplicities may be non-integral rationals
    when f is not in the virtual character lattice."""
    table = character_table(f.n)
    weighted = [(mu, fv * class_data(mu)[1]) for mu, fv in f.values.items()]
    return SchurVector(f.n, {
        lam: _exact(sum(w * table[lam][mu] for mu, w in weighted), factorial(f.n))
        for lam in partitions_of(f.n)})


@lru_cache(maxsize=None)
def h_expansion(lam: Partition):
    """s_lam as a combination of products h_{nu_1} h_{nu_2} ..., found by
    unitriangular inversion of iterated Pieri products."""
    vec = SchurVector.unit()
    for part in lam:
        vec = pieri_h(vec, part)
    out = _summed(chain([(lam, 1)], (
        (nu, -kostka * c) for mu, kostka in vec.coeffs.items() if mu != lam
        for nu, c in h_expansion(mu))))
    return tuple(sorted((k, v) for k, v in out.items() if v))


def schur_multiply(u: SchurVector, v: SchurVector) -> SchurVector:
    """General induction product. Each constituent of the smaller factor is
    either a column e_k, done by vertical strips, or expanded into h-products,
    each done by horizontal strips; a single row (k) expands to h_k itself."""
    if u.n > v.n:
        u, v = v, u
    acc = SchurVector.zero(u.n + v.n)
    for lam, c in u.coeffs.items():
        if len(lam) > 1 and lam[0] == 1:
            acc = acc + pieri_e(v, len(lam)).scale(c)
        else:
            for nu, d in h_expansion(lam):
                w = v
                for part in nu:
                    w = pieri_h(w, part)
                acc = acc + w.scale(c * d)
    return acc


class RepSeries:
    """Truncated series: cells (n, t_power) -> SchurVector of degree n <= N."""

    __slots__ = ("truncation", "terms")

    def __init__(self, truncation: int, terms=None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        self.truncation = truncation
        self.terms: dict[tuple[int, int], SchurVector] = {}
        for (n, tpow), vec in (terms or {}).items():
            self.set_term(n, tpow, vec)

    @staticmethod
    def one(truncation: int) -> "RepSeries":
        return RepSeries(truncation, {(0, 0): SchurVector.unit()})

    def term(self, n: int, tpow: int) -> SchurVector:
        return self.terms.get((n, tpow), SchurVector.zero(n))

    def set_term(self, n: int, tpow: int, vec: SchurVector) -> None:
        if n > self.truncation or n < 0 or tpow < 0:
            raise ValueError(f"cell ({n}, {tpow}) outside truncation")
        if vec.n != n:
            raise ValueError("vector degree does not match cell")
        if vec.is_zero():
            self.terms.pop((n, tpow), None)
        else:
            self.terms[(n, tpow)] = vec

    def add_term(self, n: int, tpow: int, vec: SchurVector) -> None:
        self.set_term(n, tpow, self.term(n, tpow) + vec)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RepSeries)
                and self.truncation == other.truncation
                and self.terms == other.terms)

    def __mul__(self, other: "RepSeries") -> "RepSeries":
        trunc = min(self.truncation, other.truncation)
        out = RepSeries(trunc)
        for (n1, t1), v1 in self.terms.items():
            if n1 > trunc:
                continue
            for (n2, t2), v2 in other.terms.items():
                if n1 + n2 > trunc:
                    continue
                out.add_term(n1 + n2, t1 + t2, schur_multiply(v1, v2))
        return out

    def invert(self) -> "RepSeries":
        """Multiplicative inverse; the constant cell must be exactly 1."""
        const = [key for key in self.terms if key[0] == 0]
        if const != [(0, 0)] or self.terms[(0, 0)] != SchurVector.unit():
            raise ValueError("inversion requires constant term 1")
        inv = RepSeries.one(self.truncation)
        # inv_n = -sum over k >= 1 of self_k * inv_(n-k), cell by cell from
        # the cells of inv below degree n.
        for n in range(1, self.truncation + 1):
            for (m, tpow_b), vec_b in list(inv.terms.items()):
                for (k, tpow_a), vec_a in self.terms.items():
                    if k == n - m:
                        inv.add_term(n, tpow_a + tpow_b, -schur_multiply(vec_a, vec_b))
        return inv

