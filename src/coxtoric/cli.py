"""Command-line surface: every verification and table generator, with
machine-readable output.

Exit status: 0 when the requested check verifies (or a table is produced),
1 with a structured discrepancy report naming the first failure, 2 for
malformed input or out-of-bound parameters. Identical invocations produce
byte-identical output; orderings are fixed everywhere.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import cohomology, cup_product, poset_homology, wonderful_model
from .combinatorics import partitions_of
from .poset_homology import DEFAULT_BRUTE_FORCE_BOUND, MAX_BRUTE_FORCE_BOUND
from .rep_ring import SchurVector

DESCRIPTIONS = {
    "betti-table": "Betti numbers dim H^i = A_{2i} * C(n, 2i) with exact secant numbers A.",
    "rep-table": "Irreducible multiplicities of H^i from the signed induction formula; "
                 "dimensions must reproduce the Betti numbers.",
    "verify-cohomology": "Degreewise identity in n and t between the interval-homology series "
                         "of the H^i and the series (sum h_n) * (1 + sum e_n t^(n/2))^-1.",
    "verify-poset-series": "Degreewise identity between alternating top interval homology of "
                           "the even-subset lattice and the inverse of 1 + sum of even h_n.",
    "poset-homology": "Homology ranks of the interval below [n] in the even-subset lattice, "
                      "with the symmetric-group character on the top degree.",
    "euler-check": "Cell-count Euler characteristic sum over orbit chains of (-2)^(n-m) "
                   "against the alternating sum of Betti numbers.",
    "model-check": "Membership, orbit chain and degeneration family for a point of the "
                   "compactified torus; without a point, randomized action equivariance.",
    "cup-dim": "Dimension 3 * C(n, 4) of the span of products of degree-one classes, "
               "strictly below dim H^2 = 5 * C(n, 4).",
    "cup-rep": "The cup-product span as a representation: the 4-subset pairing module "
               "induced up, cross-checked by a signed-permutation character.",
    "branching-check": "Complete search for a module one rank up restricting to the "
                       "cup-product span; infeasibility certifies non-extendability.",
    "whitney": "Whitney homology of the even-subset lattice: induced top interval "
               "homologies, whose alternating sum vanishes for even n >= 2.",
}

TABLE_COMMANDS = {"betti-table", "rep-table", "whitney", "euler-check"}
BOUND_COMMANDS = {"rep-table", "verify-cohomology", "verify-poset-series",
                  "poset-homology", "whitney"}

# Largest accepted value of (command, flag). README tabulates the measured
# cost of one run at each ceiling and one step past it; a step past is not
# always a runaway (model-check --n 8: 1.9 s at 50 trials, 35 s at 1000).
CEILINGS = {
    ("betti-table", "n"): cohomology.FORMULA_DEGREE_LIMIT,
    ("rep-table", "n"): cohomology.FORMULA_DEGREE_LIMIT,
    ("model-check", "n"): 7,
    ("model-check", "trials"): 1000,
    ("cup-dim", "n"): 40,
    ("cup-rep", "n"): 10000,
    ("euler-check", "N"): 300,
    ("branching-check", "n"): 29,
}
# cup-rep cross-checks the Pieri route by the signed trace up to this n.
CUP_REP_CROSS_CHECK_LIMIT = 20


def _partition_str(lam) -> str:
    return "[" + ",".join(map(str, lam)) + "]"


def _rep_to_multiplicities(vec: SchurVector) -> list[dict]:
    return [
        {"partition": list(lam), "multiplicity": int(c) if c.denominator == 1 else str(c)}
        for lam, c in vec.items()
    ]


def _rep_compact(vec: SchurVector) -> str:
    return ";".join(f"{_partition_str(lam)}:{c}" for lam, c in vec.items()) or "0"


def _emit(payload: dict, rows: list[dict] | None, config) -> None:
    if config.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif config.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = []
        if rows is not None:
            for row in rows:
                lines.append(" ".join(str(v) for v in row.values()))
        else:
            lines.append(json.dumps(payload))
        text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


NEEDS_N = {"betti-table", "rep-table", "poset-homology", "cup-dim",
           "cup-rep", "branching-check", "whitney"}


def _check_bounds(config, command) -> None:
    if not 0 <= getattr(config, "bound", 0) <= MAX_BRUTE_FORCE_BOUND:
        raise ValueError(f"--bound must lie in 0..{MAX_BRUTE_FORCE_BOUND}")
    for (name, flag), ceiling in CEILINGS.items():
        value = getattr(config, flag) if name == command else None
        if value is not None and value > ceiling:
            raise ValueError(f"--{flag} is limited to {ceiling} for {command}")
    n = getattr(config, "n", None)
    if command in NEEDS_N and n is None:
        raise ValueError(f"{command} needs --n")
    if n is not None and n < 0:
        raise ValueError("--n must be nonnegative")
    if command == "model-check" and n is not None and n < 1:
        raise ValueError("--n must be at least 1")
    if command == "poset-homology" and n is not None and n > config.bound:
        raise ValueError(f"--n exceeds the brute-force bound {config.bound}")
    if command == "whitney" and n is not None and 2 * (n // 2) > config.bound:
        raise ValueError(f"whitney --n {n} needs interval size {2 * (n // 2)}, "
                         f"beyond the brute-force bound {config.bound}")
    N = getattr(config, "N", None)
    if command in ("verify-cohomology", "verify-poset-series") and N is not None \
            and N > config.bound:
        raise ValueError(f"--N exceeds the brute-force bound {config.bound}")
    if command == "euler-check" and N < 1:
        raise ValueError("--N must be at least 1")
    if getattr(config, "trials", 0) < 0:
        raise ValueError("--trials must be nonnegative")


def _row_range(config) -> list[int]:
    if config.i is not None:
        if not (0 <= config.i <= config.n // 2):
            raise ValueError(f"--i must lie in 0..{config.n // 2}")
        return [config.i]
    return list(range(config.n // 2 + 1))


def cmd_betti_table(config) -> int:
    rows = [
        {"n": config.n, "i": i, "betti": cohomology.betti(config.n, i)}
        for i in _row_range(config)
    ]
    _emit({"command": "betti-table", "rows": rows}, rows, config)
    return 0


def cmd_rep_table(config) -> int:
    n = config.n
    rows = []
    json_rows = []
    for i in _row_range(config):
        if config.route == "induction":
            rep = cohomology.rep_via_induction(n, i)
        else:
            rep = cohomology.rep_via_poset(n, i, bound=config.bound)
        betti = cohomology.betti(n, i)
        if rep.dimension() != betti:
            sys.stderr.write(json.dumps(
                {"discrepancy": "dimension mismatch", "n": n, "i": i}) + "\n")
            return 1
        rows.append({"n": n, "i": i, "betti": betti, "rep": _rep_compact(rep)})
        json_rows.append({"n": n, "i": i, "betti": betti,
                          "multiplicities": _rep_to_multiplicities(rep)})
    payload = {"command": "rep-table", "route": config.route, "rows": json_rows}
    _emit(payload, rows, config)
    return 0


def cmd_verify_cohomology(config) -> int:
    lhs = cohomology.cohomology_series_poset(config.N, bound=config.bound)
    rhs = cohomology.cohomology_series_formula(config.N)
    cells = sorted(set(lhs.terms) | set(rhs.terms))
    for (n, tpow) in cells:
        if lhs.term(n, tpow) != rhs.term(n, tpow):
            _emit({"command": "verify-cohomology", "verified": False,
                   "first_failing": {"n": n, "t_power": tpow}}, None, config)
            return 1
    _emit({"command": "verify-cohomology", "verified": True, "N": config.N}, None, config)
    return 0


def cmd_verify_poset_series(config) -> int:
    lhs, rhs = poset_homology.poset_series_sides(config.N)
    for n in sorted(set(lhs) | set(rhs)):
        if lhs.get(n, SchurVector.zero(n)) != rhs.get(n, SchurVector.zero(n)):
            _emit({"command": "verify-poset-series", "verified": False,
                   "first_failing": {"n": n}}, None, config)
            return 1
    _emit({"command": "verify-poset-series", "verified": True, "N": config.N}, None, config)
    return 0


def cmd_poset_homology(config) -> int:
    n = config.n
    ranks = poset_homology.homology_ranks(n)
    char = poset_homology.equivariant_top_character(n)
    payload = {
        "command": "poset-homology",
        "n": n,
        "ranks": {str(m): ranks[m] for m in sorted(ranks)},
        "character": {
            ",".join(map(str, mu)): char(mu)
            for mu in partitions_of(n)
        },
        "concentrated": poset_homology.cm_concentration_check(n),
    }
    _emit(payload, None, config)
    return 0 if payload["concentrated"] else 1


def cmd_euler_check(config) -> int:
    rows = []
    first_bad = None
    for n in range(1, config.N + 1):
        cells = wonderful_model.euler_characteristic_cells(n)
        alternating = sum((-1) ** i * cohomology.betti(n, i) for i in range(n // 2 + 1))
        ok = cells == alternating
        if not ok and first_bad is None:
            first_bad = n
        rows.append({"n": n, "cells": cells, "alternating_betti": alternating, "ok": ok})
    payload = {"command": "euler-check", "verified": first_bad is None, "rows": rows}
    if first_bad is not None:
        payload["first_failing"] = {"n": first_bad}
    _emit(payload, rows, config)
    return 0 if first_bad is None else 1


def cmd_model_check(config) -> int:
    if config.point is not None:
        if config.point == "-":
            data = json.load(sys.stdin)
        else:
            with open(config.point) as fh:
                data = json.load(fh)
        point = wonderful_model.ModelPoint.from_json(
            data, max_n=CEILINGS["model-check", "n"])
        membership = wonderful_model.is_on_model(point)
        payload = {"command": "model-check", "n": point.n, "on_model": membership}
        if membership:
            witness = wonderful_model.degeneration_witness(point)
            payload["orbit"] = witness["chain"]
            payload["degeneration_ok"] = witness["ok"]
            payload["degeneration"] = witness
            _emit(payload, None, config)
            return 0 if witness["ok"] else 1
        payload["first_violation"] = wonderful_model.first_violation(point)
        _emit(payload, None, config)
        return 1
    if config.n is None:
        raise ValueError("model-check needs --point or --n")
    report = wonderful_model.equivariance_report(config.n, config.trials, config.seed)
    payload = {"command": "model-check", **report}
    _emit(payload, None, config)
    return 0 if report["ok"] else 1


def cmd_cup_dim(config) -> int:
    dim = cup_product.cup_span_dimension(config.n)
    payload = {
        "command": "cup-dim", "n": config.n, "dimension": dim,
        "betti_2": cohomology.betti(config.n, 2),
        "spans_h2": dim == cohomology.betti(config.n, 2),
    }
    _emit(payload, None, config)
    return 0


def cmd_cup_rep(config) -> int:
    checked = config.n <= CUP_REP_CROSS_CHECK_LIMIT
    rep = cup_product.cup_span_representation(config.n, cross_check=checked)
    payload = {
        "command": "cup-rep", "n": config.n,
        "multiplicities": _rep_to_multiplicities(rep),
        "dimension": rep.dimension(),
        "character_cross_checked": checked,
    }
    _emit(payload, None, config)
    return 0


def cmd_branching_check(config) -> int:
    cert = cup_product.branching_infeasibility(config.n)
    payload = {"command": "branching-check", "n": config.n,
               "status": cert["status"], "witness": cert["witness"]}
    _emit(payload, None, config)
    return 0


def cmd_whitney(config) -> int:
    n = config.n
    rows = []
    json_rows = []
    total = SchurVector.zero(n)
    for i in range(n // 2 + 1):
        vec = poset_homology.whitney_homology(n, i)
        total = total + vec.scale((-1) ** i)
        rows.append({"n": n, "i": i, "dimension": vec.dimension(),
                     "rep": _rep_compact(vec)})
        json_rows.append({"n": n, "i": i, "dimension": vec.dimension(),
                          "multiplicities": _rep_to_multiplicities(vec)})
    claimed = n >= 2 and n % 2 == 0  # the sum vanishes only for even n >= 2
    payload = {"command": "whitney", "n": n, "rows": json_rows,
               "alternating_sum_zero": total.is_zero() if claimed else None}
    _emit(payload, rows, config)
    return 1 if claimed and not total.is_zero() else 0


HANDLERS = {
    "betti-table": cmd_betti_table,
    "rep-table": cmd_rep_table,
    "verify-cohomology": cmd_verify_cohomology,
    "verify-poset-series": cmd_verify_poset_series,
    "poset-homology": cmd_poset_homology,
    "euler-check": cmd_euler_check,
    "model-check": cmd_model_check,
    "cup-dim": cmd_cup_dim,
    "cup-rep": cmd_cup_rep,
    "branching-check": cmd_branching_check,
    "whitney": cmd_whitney,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main reports them as JSON with exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coxtoric",
        description="Exact cohomology engine for the real toric variety of the "
                    "type-A reflection arrangement fan.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, help=DESCRIPTIONS[name])
        p.add_argument("--describe", action="store_true",
                       help="print what this command verifies and exit")
        formats = ("json", "csv", "plain") if name in TABLE_COMMANDS else ("json", "plain")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        if name in BOUND_COMMANDS:
            p.add_argument("--bound", type=int, default=DEFAULT_BRUTE_FORCE_BOUND,
                           help="brute-force interval-size bound, "
                                f"0..{MAX_BRUTE_FORCE_BOUND}")
        if name in NEEDS_N or name == "model-check":
            p.add_argument("--n", type=int, default=None)
        if name in ("betti-table", "rep-table"):
            p.add_argument("--i", type=int, default=None,
                           help="restrict to a single cohomological degree")
        if name in ("verify-cohomology", "verify-poset-series", "euler-check"):
            default = 10 if name == "euler-check" else 8
            p.add_argument("--N", type=int, default=default)
        if name == "rep-table":
            p.add_argument("--route", choices=("induction", "poset"), default="induction")
        if name == "model-check":
            p.add_argument("--point", default=None,
                           help="path to a point JSON file, or - for stdin")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=50)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = parser.parse_args(argv)
        if config.describe:
            sys.stdout.write(DESCRIPTIONS[config.command] + "\n")
            return 0
        _check_bounds(config, config.command)
        return HANDLERS[config.command](config)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except ArithmeticError as exc:
        if type(exc) is not ArithmeticError:  # ZeroDivisionError etc. are faults
            raise
        sys.stderr.write(json.dumps({"discrepancy": str(exc)}) + "\n")
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
