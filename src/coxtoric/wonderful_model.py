"""Concrete geometry of the compactified torus inside a product of projective
spaces indexed by nonempty subsets of [n].

A point carries one projective tuple v_I of exact rationals per nonempty subset
I, each an int unless its input or a torus factor is a string or a Fraction;
membership is the rank-one compatibility of every nested pair of components.
The vanishing recursion sorts points into torus orbits labelled by strict
subset chains, and each point admits an explicit one-parameter degeneration
from the open torus, which degeneration_witness reconstructs and checks
component by component.

One stage rule reads a point. On the orbit chain [n] = K_0 > K_1 > ... > K_m
= {}, K_{s+1} the zeros of v_{K_s}, the stage of a subset J is the last s with
J <= K_s; the stage coordinates t take t_i from v_{K_s}, s the stage of i.
_translate(chain, t), the chain's canonical point moved by t, has t_i at I's
stage and 0 deeper in its I-component. The membership scan and
degeneration_witness read _stage_coordinates; _translate builds the
degeneration limit, the closure curve's sample, representative_point,
torus_embedding and random_model_point.

A point is on the model exactly when every v_J is proportional to
v_{K_s}|_J, s the stage of J. Necessity: J is not inside K_{s+1}, so
v_{K_s}|_J != 0, and the pair (J, K_s) forces proportionality. Sufficiency:
take I < J. If I has J's stage s, v_I and v_J|_I are both proportional to
v_{K_s}|_I; if I lies deeper, v_J|_I is proportional to v_{K_s}|_I = 0. Both
steps need nonzero components, which the constructor enforces. So a scan
reads each component once, against its block, where the nested pairs number
O(3^n). The scan compares inline: p == _translate(chain, t) gives the same
verdicts but took 26-37 ms of compute per model-geometry operation against
18-26 (2-vCPU VM). first_violation scans every nested pair in subset order,
in integers: each component is scaled by the lcm of its denominators, and
each pair is compared against I's first nonzero entry; unscaled Fractions
took 17-35 ms per full scan at n = 7, against 3-4.

Comparisons build no Fraction: _products_equal decides a*b == c*d by integer
cross-products, exact as denominators are positive, at once on shared
operands. ModelPoint parses each distinct coordinate string once per
construction; the exponent and zero-denominator checks still see every string.

A ModelPoint is immutable, so the scan's result, the chain or None, is kept
on it: is_on_model, orbit_of and degeneration_witness scan one point once,
and orbit_of and degeneration_witness raise ValueError off the model.

Every scan and serialization walks the nonempty subsets of [n] in one order,
by size and then lexicographically, built once per n by _keys.
random_model_point draws an index into all_chains(n) and unranks it, so no
chain is enumerated for a draw.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, lcm

from .combinatorics import SubsetChain, ordered_bell, ordered_chains, validate_chain


@lru_cache(maxsize=None)
def _keys(n: int) -> tuple[tuple[tuple[int, ...], frozenset], ...]:
    """(subset as a sorted tuple, its frozenset) for every nonempty subset of
    [n], by size and then lex."""
    ground = range(1, n + 1)
    return tuple((sub, frozenset(sub)) for size in ground for sub in combinations(ground, size))


@lru_cache(maxsize=None)
def _nested_pairs(n: int) -> tuple[tuple[frozenset, frozenset, tuple[int, ...]], ...]:
    """(I, J, positions of I inside J) for every I < J with |I| >= 2, both in
    subset order; a singleton I has no 2x2 minor to test."""
    keys = _keys(n)
    return tuple(
        (small_key, big_key, tuple(big.index(i) for i in small))
        for small, small_key in keys if len(small) > 1
        for big, big_key in keys if len(big) > len(small) and small_key <= big_key)


class ModelPoint:
    """Projective coordinate tuples indexed by the nonempty subsets of [n].

    Components are aligned with the sorted order of their subset; singleton
    components carry no information and default to (1,). A point is
    immutable; its first scan sets _chain to the orbit chain, or to None off
    the model.
    """

    __slots__ = ("n", "components", "_chain")

    def __init__(self, n: int, components):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        ground = frozenset(range(1, n + 1))
        comps, parsed = {}, {}  # parsed: each distinct string, once per construction
        for subset, coords in components.items():
            subset = frozenset(subset)
            if not subset or not subset <= ground:
                raise ValueError(f"bad subset {sorted(subset)}")
            if any(isinstance(c, str) and "e" in c.lower() for c in coords):
                raise ValueError(f"component {sorted(subset)} has a coordinate with an "
                                 "exponent; coordinates are exact rationals")
            try:
                coords = tuple(c if type(c) in (int, Fraction) else parsed[c] if c in parsed
                               else parsed.setdefault(c, Fraction(c)) for c in coords)
            except ZeroDivisionError:
                raise ValueError("a coordinate has a zero denominator") from None
            if len(coords) != len(subset):
                raise ValueError(f"component {sorted(subset)} has wrong length")
            if not any(coords):
                raise ValueError(f"component {sorted(subset)} is identically zero")
            comps[subset] = coords
        for i in range(1, n + 1):
            comps.setdefault(frozenset([i]), (1,))
        if len(comps) < 2 ** n - 1:
            missing = next(sub for sub, key in _keys(n) if key not in comps)
            raise ValueError(f"missing component {list(missing)}")
        self.components = comps

    @classmethod
    def _of(cls, n: int, comps: dict) -> "ModelPoint":
        """Trusted constructor: comps already maps every nonempty subset of
        [n] to a nonzero tuple of ints and Fractions, built from a valid point."""
        point = object.__new__(cls)
        point.n, point.components = n, comps
        return point

    def component(self, subset) -> tuple:
        return self.components[frozenset(subset)]

    def __eq__(self, other) -> bool:
        """Projective equality: every component proportional to its twin."""
        if not isinstance(other, ModelPoint) or self.n != other.n:
            return False
        return all(
            projectively_equal(coords, other.components[subset])
            for subset, coords in self.components.items()
        )

    def to_json(self) -> dict:
        return {"n": self.n, "components": [
            {"subset": list(sub), "coords": [str(c) for c in self.components[key]]}
            for sub, key in _keys(self.n)]}

    @staticmethod
    def from_json(data, max_n: int | None = None) -> "ModelPoint":
        """Point from the README's JSON shape. Another shape or an n above max_n
        raises ValueError before any subset is built. So does a subset listed
        twice or not strictly increasing, rather than being dropped or read in
        sorted order; ModelPoint rejects a zero denominator or an exponent."""
        data = data if isinstance(data, dict) else {}
        n, entries = data.get("n"), data.get("components")
        if type(n) is not int or not isinstance(entries, list) or not all(
                isinstance(e, dict) and _list_of(e.get("subset"), int)
                and _list_of(e.get("coords"), (int, str)) for e in entries):
            raise ValueError('a point is {"n": int, "components": [{"subset", "coords"}, ...]}')
        if max_n is not None and n > max_n:
            raise ValueError(f"the point's n = {n} is limited to {max_n}")
        comps = {}
        for entry in entries:
            sub = entry["subset"]
            if any(a >= b for a, b in zip(sub, sub[1:])):
                raise ValueError(f"subset {sub} is not strictly increasing")
            if frozenset(sub) in comps:
                raise ValueError(f"subset {sub} is listed twice")
            comps[frozenset(sub)] = entry["coords"]
        return ModelPoint(n, comps)


def _list_of(value, types) -> bool:
    """A JSON list whose items all have one of the types; bools are not ints."""
    return isinstance(value, list) and all(
        isinstance(x, types) and not isinstance(x, bool) for x in value)


def _minors_vanish(u, v) -> bool:
    """Every 2x2 minor of the two-row matrix with rows u and v is zero.

    Against the first nonzero u[a], u[a]*v[b] == u[b]*v[a] for every b makes
    v = (v[a]/u[a])*u, so every other minor vanishes too; a zero u has none.
    """
    for ua, va in zip(u, v):
        if ua:
            return all(_products_equal(ua, vb, ub, va) for ub, vb in zip(u, v))
    return True


def _products_equal(a, b, c, d) -> bool:
    """a*b == c*d for ints and Fractions; no product when a is d and b is c."""
    return a is d and b is c or (a.numerator * b.numerator * c.denominator * d.denominator
                                 == c.numerator * d.numerator * a.denominator * b.denominator)


def _integral(coords) -> tuple[int, ...]:
    """The coordinates times the lcm of their denominators: integers on the
    same projective line."""
    scale = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (scale // c.denominator) for c in coords)


def projectively_equal(u, v) -> bool:
    return len(u) == len(v) and _minors_vanish(u, v) and any(u) and any(v)


def torus_embedding(coords) -> ModelPoint:
    """Image of a torus element: every component restricts the same tuple."""
    coords = tuple(coords)
    t = _torus_element(coords, len(coords))
    return _translate((frozenset(range(1, len(t) + 1)), frozenset()), t)


def first_violation(p: ModelPoint):
    """First nested pair (I, J) whose components fail the rank-one condition,
    or None when the point is on the model. Pairs are scanned in subset order,
    I first, then J."""
    comps = {subset: _integral(coords) for subset, coords in p.components.items()}
    pivots = {subset: next(k for k, c in enumerate(u) if c) for subset, u in comps.items()}
    for small, big, inner in _nested_pairs(p.n):
        u, v, a = comps[small], comps[big], pivots[small]
        if any(u[a] * v[k] != ub * v[inner[a]] for ub, k in zip(u, inner)):
            return (sorted(small), sorted(big))
    return None


def is_on_model(p: ModelPoint) -> bool:
    """Membership: all 2x2 minors of every nested component pair vanish,
    checked against the orbit chain (see the module docstring)."""
    return _scan(p) is not None


def orbit_of(p: ModelPoint) -> SubsetChain:
    """Orbit chain of a point, which must lie on the model."""
    chain = _scan(p)
    if chain is None:
        raise ValueError("orbit classification needs a point on the model")
    return chain


def _scan(p: ModelPoint):
    """The orbit chain of p, or None off the model; worked out on the point's
    first scan and kept on it."""
    try:
        return p._chain
    except AttributeError:
        p._chain = _chain_on_model(p)
        return p._chain


def _chain_on_model(p: ModelPoint):
    """The orbit chain if every component is proportional to its stage block
    restricted to it (see the module docstring), else None. With a the first
    element of the subset at its stage, t the stage coordinates and t_a != 0,
    that asks t_a*v[i] == t_i*v[a] for i at the stage and v[i] == 0 deeper."""
    chain = _orbit(p)
    stage, t = _stages(chain), _stage_coordinates(p, chain)
    for sub, key in _keys(p.n):
        s = min(map(stage.__getitem__, sub))
        ta = None
        for i, c in zip(sub, p.components[key]):
            if stage[i] != s:
                if c:
                    return None
            elif ta is None:
                ta, va = t[i - 1], c
            elif not _products_equal(ta, c, t[i - 1], va):
                return None
    return chain


def _stages(chain: SubsetChain) -> list[int]:
    """stage[i] = s for i in K_s - K_{s+1}; index 0 is unused."""
    stage = [0] * (len(chain[0]) + 1)
    for s, (K, nxt) in enumerate(zip(chain, chain[1:])):
        for i in K - nxt:
            stage[i] = s
    return stage


def _stage_coordinates(p: ModelPoint, chain: SubsetChain) -> tuple:
    """Stage coordinates: t_i is entry i of v_{K_s}, s the stage of i, nonzero
    as K_{s+1} holds that component's zeros. On the model p is _translate(chain, t)."""
    t = [None] * p.n
    for K in chain[:-1]:  # deeper blocks overwrite: t_i is read at i's stage
        for i, c in zip(sorted(K), p.components[K]):
            t[i - 1] = c
    return tuple(t)


def _orbit(p: ModelPoint) -> SubsetChain:
    """Chain of vanishing loci: K_{l+1} collects the zero coordinates of the
    K_l component, stopping at the first block with no zeros. Membership is
    not checked."""
    chain = [frozenset(range(1, p.n + 1))]
    while chain[-1]:
        K = chain[-1]
        chain.append(frozenset(i for i, c in zip(sorted(K), p.components[K]) if c == 0))
    return tuple(chain)


def representative_point(chain: SubsetChain) -> ModelPoint:
    """Canonical point on the orbit of a chain: each block's component is 1
    away from the next block and 0 on it, propagated to all subsets."""
    validate_chain(chain)
    return _translate(chain, (1,) * len(chain[0]))


def _translate(chain: SubsetChain, t: tuple) -> ModelPoint:
    """torus_act(t, representative_point(chain)) for a valid chain and a
    checked torus element: the I-component is t_i where i sits at I's stage,
    and 0 deeper."""
    stage = _stages(chain)
    comps = {}
    for sub, key in _keys(len(chain[0])):
        top = min(map(stage.__getitem__, sub))
        comps[key] = tuple([t[i - 1] if stage[i] == top else 0 for i in sub])
    return ModelPoint._of(len(chain[0]), comps)


def degeneration_witness(p: ModelPoint) -> dict:
    """Reconstruct the one-parameter family q(x) whose limit at x = 0 is p.

    Coordinate i of q(x) is t_i * x^(s+1), t the stage coordinates of p and s
    the stage of i. On a subset I the lowest power is 1 + the stage of I, so
    q(x)|_I over that power at x = 0 keeps exactly the entries at I's stage:
    the limit is the I-component of _translate(chain, t), and it must equal
    v_I projectively. The report lists each component comparison; any
    failure names its subset.
    """
    chain = orbit_of(p)
    stage, t = _stages(chain), _stage_coordinates(p, chain)
    limits = _translate(chain, t).components
    components = []
    for sub, key in _keys(p.n):
        limit, target = limits[key], p.components[key]
        components.append({
            "subset": list(sub),
            "limit": [str(c) for c in limit],
            "target": [str(c) for c in target],
            "ok": projectively_equal(limit, target),
        })
    return {
        "chain": [sorted(b) for b in chain],
        "family": {i: {"coeff": str(t[i - 1]), "power": stage[i] + 1}
                   for i in range(1, p.n + 1)},
        "components": components,
        "ok": all(c["ok"] for c in components),
    }


def torus_act(t, p: ModelPoint) -> ModelPoint:
    """Coordinatewise scaling of every component by the torus element t; each
    product t_i * c (nonzero) is formed once per position i and object c."""
    t, products = _torus_element(t, p.n), {}
    return ModelPoint._of(p.n, {
        key: tuple([products.get((i, id(c))) or products.setdefault((i, id(c)), t[i - 1] * c)
                    if c else c for i, c in zip(sub, p.components[key])])
        for sub, key in _keys(p.n)})


def _torus_element(t, n: int) -> tuple:
    """t as n nonzero ints and Fractions, n >= 1; anything else is refused."""
    t = tuple(c if type(c) in (int, Fraction) else Fraction(c) for c in t)
    if not t or len(t) != n or any(c == 0 for c in t):
        raise ValueError("torus element must have n nonzero entries")
    return t


def permute_point(w, p: ModelPoint) -> ModelPoint:
    """Relabelling action: the I-component moves to w(I), entries following w."""
    if sorted(w) != list(range(1, p.n + 1)):
        raise ValueError("w must be a permutation of 1..n")
    comps = {}
    for subset, coords in p.components.items():
        images, moved = zip(*sorted(zip([w[i - 1] for i in sorted(subset)], coords)))
        comps[frozenset(images)] = moved
    return ModelPoint._of(p.n, comps)


def permute_chain(w, chain: SubsetChain) -> SubsetChain:
    return tuple(frozenset(w[i - 1] for i in block) for block in chain)


def closure_refinement(chain_a: SubsetChain, chain_b: SubsetChain) -> bool:
    """True iff chain_a refines chain_b, i.e. the orbit of chain_a lies in the
    closure of the orbit of chain_b."""
    validate_chain(chain_a)
    validate_chain(chain_b)
    if chain_a[0] != chain_b[0]:
        raise ValueError("chains must share the ground set")
    return set(chain_b) <= set(chain_a)


def closure_curve_witness(fine: SubsetChain, coarse: SubsetChain) -> dict:
    """Explicit curve inside the coarse orbit whose limit is the canonical
    point of the refining chain.

    The curve is _translate(coarse, (x^(f_i + 1))_i), f_i the stage of i in
    the fine chain: monomials at each subset's coarse stage, 0 deeper. The
    zero pattern is the same for all x != 0, so one sample at x = 1/2 checks
    the punctured family. The limit divides each component by its lowest
    power, so it keeps the sample's largest entries, as 1, and 0 elsewhere.
    """
    if not closure_refinement(fine, coarse):
        raise ValueError("first chain must refine the second")
    fine_stage = _stages(fine)
    sample = _translate(coarse, tuple(Fraction(1, 2 ** (s + 1)) for s in fine_stage[1:]))
    target = representative_point(fine)
    components = []
    for sub, key in _keys(sample.n)[sample.n:]:  # a singleton's limit is (1,)
        coords = sample.components[key]
        lead = max(coords)  # 1/2^power is largest at the lowest power
        ok = projectively_equal(tuple(int(c == lead) for c in coords), target.components[key])
        components.append({"subset": list(sub), "ok": ok})
    limit_ok = all(c["ok"] for c in components)
    on_model = is_on_model(sample)
    in_orbit = on_model and _scan(sample) == coarse
    return {
        "fine": [sorted(b) for b in fine],
        "coarse": [sorted(b) for b in coarse],
        "sample_on_model": on_model,
        "sample_in_coarse_orbit": in_orbit,
        "limit_matches": limit_ok,
        "components": components,
        "ok": on_model and in_orbit and limit_ok,
    }


def euler_characteristic_cells(n: int) -> int:
    """Compactly supported Euler characteristic summed over orbits: the
    m! * S(n, m) chains with m+1 blocks each contribute (-2)^(n-m), one
    factor -2 per real 1-torus."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(ordered_chains(n, m) * (-2) ** (n - m) for m in range(1, n + 1))


def random_torus_element(n: int, rng) -> tuple[Fraction, ...]:
    out = []
    for _ in range(n):
        sign = rng.choice((1, -1))
        out.append(Fraction(sign * rng.randint(1, 6), rng.randint(1, 6)))
    return tuple(out)


def random_permutation(n: int, rng) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def unrank_chain(n: int, r: int) -> SubsetChain:
    """all_chains(n)[r] without enumerating it: the chains come by m, then
    each next block by descending size, then lexicographically."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= r < ordered_bell(n):
        raise ValueError(f"chain index {r} out of range for n = {n}")
    m = 1
    while r >= ordered_chains(n, m):
        r, m = r - ordered_chains(n, m), m + 1
    elems = tuple(range(1, n + 1))
    chain = [frozenset(elems)]
    for steps in range(m - 1, 0, -1):
        size = len(elems) - 1
        while r >= comb(len(elems), size) * ordered_chains(size, steps):
            r -= comb(len(elems), size) * ordered_chains(size, steps)
            size -= 1
        index, r = divmod(r, ordered_chains(size, steps))
        elems = next(islice(combinations(elems, size), index, None))
        chain.append(frozenset(elems))
    return (*chain, frozenset())


def random_model_point(n: int, rng) -> ModelPoint:
    """A torus translate of a random orbit representative; exercises strata of
    every depth, not just the open orbit."""
    chain = unrank_chain(n, rng.randrange(ordered_bell(n)))
    return _translate(chain, random_torus_element(n, rng))


def equivariance_report(n: int, trials: int, seed: int) -> dict:
    """Randomized action checks; the report counts failures per property."""
    import random

    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        t = random_torus_element(n, rng)
        if not is_on_model(torus_embedding(t)):
            failures.append({"trial": trial, "property": "torus_image_on_model"})
        p = random_model_point(n, rng)
        if not is_on_model(p):
            failures.append({"trial": trial, "property": "representative_on_model"})
            continue
        orbit = _scan(p)
        scaled = torus_act(random_torus_element(n, rng), p)
        if not is_on_model(scaled):
            failures.append({"trial": trial, "property": "torus_invariance"})
        elif _scan(scaled) != orbit:
            failures.append({"trial": trial, "property": "torus_orbit_stability"})
        w = random_permutation(n, rng)
        moved = permute_point(w, p)
        if not is_on_model(moved):
            failures.append({"trial": trial, "property": "permutation_invariance"})
        elif _scan(moved) != permute_chain(w, orbit):
            failures.append({"trial": trial, "property": "permutation_orbit_equivariance"})
    return {"n": n, "trials": trials, "seed": seed,
            "failures": failures, "ok": not failures}
