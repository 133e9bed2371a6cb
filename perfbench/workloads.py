"""Operation specs for each workload, generated from the workload seed.

Operation k of a workload depends only on (workload, seed, k), so the same
seed gives the same inputs. Each workload cycles through a fixed list of
operation kinds; CYCLE gives its length, which the traced run uses as the
unit of work it reports per-layer figures for.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

# The five README poset commands at the brute-force bound (interval size 8).
POSET_COMMANDS = (
    ("verify-cohomology", "--N", "8"),
    ("verify-poset-series", "--N", "8"),
    ("poset-homology", "--n", "8"),
    ("whitney", "--n", "8"),
    ("rep-table", "--n", "8", "--route", "poset"),
)
# n = 14 is past the CLI's formula cap of 12: the reach frontier.
FORMULA_N = 14
FORMULA_KINDS = ("induction", "cup_span", "branching")
MODEL_N = 6
MODEL_TRIALS = 10
MODEL_POINTS = 5

# The twelve README command lines; {point} is replaced by the path of the
# README example point.
README_COMMANDS = (
    ("betti-table", ("betti-table", "--n", "6")),
    ("rep-table", ("rep-table", "--n", "6", "--format", "csv")),
    ("verify-cohomology", ("verify-cohomology", "--N", "8")),
    ("verify-poset-series", ("verify-poset-series", "--N", "8")),
    ("poset-homology", ("poset-homology", "--n", "6")),
    ("whitney", ("whitney", "--n", "6")),
    ("euler-check", ("euler-check", "--N", "10")),
    ("cup-dim", ("cup-dim", "--n", "6")),
    ("cup-rep", ("cup-rep", "--n", "6")),
    ("branching-check", ("branching-check", "--n", "4")),
    ("model-check-seed", ("model-check", "--n", "4", "--seed", "0")),
    ("model-check-point", ("model-check", "--point", "{point}")),
)
README_POINT = {"n": 3, "components": [
    {"subset": [1, 2, 3], "coords": ["0", "0", "1"]},
    {"subset": [1, 2], "coords": ["1", "2"]},
    {"subset": [1, 3], "coords": ["0", "1"]},
    {"subset": [2, 3], "coords": ["0", "1"]},
]}


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def poset_route(seed: int, k: int) -> tuple[str, dict]:
    # The inputs are fixed; the seed only rotates the starting command.
    argv = POSET_COMMANDS[(seed + k) % len(POSET_COMMANDS)]
    return " ".join(argv), {"kind": "cli", "argv": list(argv)}


def formula_route(seed: int, k: int) -> tuple[str, dict]:
    kind = FORMULA_KINDS[(seed + k) % len(FORMULA_KINDS)]
    return f"{kind}({FORMULA_N})", {"kind": kind, "n": FORMULA_N}


def random_chain(n: int, rng: random.Random, min_blocks: int = 1) -> list[list[int]]:
    """A strict chain [n] = K_1 > ... > K_{m+1} = {} from a random ordered set
    partition of [n] into m blocks."""
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    m = rng.randint(min_blocks, n)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    chain = [set(elems)]
    for a, b in zip([0] + cuts, cuts + [n]):
        chain.append(chain[-1] - set(elems[a:b]))
    return [sorted(block) for block in chain]


def point_on_chain(chain: list[list[int]], rng: random.Random) -> dict:
    """Point JSON of a random torus translate of the canonical point of the
    chain's orbit: the I-component is t_i off K_{s+1} and 0 on it, where K_s
    is the last block containing I."""
    n = len(chain[0])
    blocks = [set(b) for b in chain]
    t = [Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 6))
         for _ in range(n)]
    components = []
    for size in range(2, n + 1):
        for sub in combinations(range(1, n + 1), size):
            stage = max(idx for idx, K in enumerate(blocks[:-1]) if set(sub) <= K)
            nxt = blocks[stage + 1]
            coords = ["0" if i in nxt else str(t[i - 1]) for i in sub]
            components.append({"subset": list(sub), "coords": coords})
    return {"n": n, "components": components}


def model_geometry(seed: int, k: int) -> tuple[str, dict]:
    rng = _rng("model-geometry", seed, k)
    equivariance_seed = rng.randrange(2 ** 31)
    points = []
    for _ in range(MODEL_POINTS):
        chain = random_chain(MODEL_N, rng)
        points.append({"chain": chain, "point": point_on_chain(chain, rng)})
    fine = random_chain(MODEL_N, rng, min_blocks=2)
    coarse = [fine[0]] + [b for b in fine[1:-1] if rng.random() < 0.5] + [fine[-1]]
    spec = {"kind": "model", "n": MODEL_N, "trials": MODEL_TRIALS,
            "seed": equivariance_seed, "points": points, "fine": fine, "coarse": coarse}
    return f"model-geometry op {k} (equivariance seed {equivariance_seed})", spec


WORKLOADS = {
    "poset-route": poset_route,
    "formula-route": formula_route,
    "model-geometry": model_geometry,
}
CYCLE = {"poset-route": len(POSET_COMMANDS), "formula-route": len(FORMULA_KINDS),
         "model-geometry": 1}
