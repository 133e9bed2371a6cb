"""Command-line surface: every verification and table generator, with
machine-readable output.

Exit status: 0 when the requested check verifies (or a table is produced),
1 with a structured discrepancy report naming the first failure, 2 for
malformed input or out-of-bound parameters. Identical invocations produce
byte-identical output; orderings are fixed everywhere.

Each command is declared once, by a Command on its handler: its description,
whether it offers csv, every flag with its default, floor and ceiling, and the
interval size a run needs. build_parser and _check loop over these; _check
refuses an out-of-range flag, or an interval beyond --bound, before any work.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Callable, NamedTuple

from . import cohomology, cup_product, poset_homology, wonderful_model
from .combinatorics import partitions_of
from .poset_homology import MAX_BRUTE_FORCE_BOUND
from .rep_ring import SchurVector

DEFAULT_BRUTE_FORCE_BOUND = 8
# Ceiling of model-check --n, which also bounds a point file's n.
MODEL_CHECK_MAX_N = 7
# cup-rep cross-checks the Pieri route by the signed trace up to this n.
CUP_REP_CROSS_CHECK_LIMIT = 20


class Flag(NamedTuple):
    """Option --name. An int flag lies in floor..ceiling, and a callable
    ceiling reads the other flags. README tabulates the cost of one run at
    each fixed ceiling and one step past it; a step past is not always a
    runaway (model-check --n 8: 1.9 s at 50 trials, 35 s at 1000). A str flag
    is checked by argparse against its choices, if any."""

    name: str
    default: object = None
    floor: int | None = 0
    ceiling: int | Callable | None = None
    required: bool = False
    type: type = int
    choices: tuple | None = None
    help: str | None = None


class Command(NamedTuple):
    """One command's registration, applied to its handler as a decorator.
    interval maps the parsed flags to the interval size a run needs (None if
    it needs none); a command with an interval lists BOUND among its flags."""

    name: str
    description: str
    flags: tuple[Flag, ...]
    table: bool = False  # offers csv
    interval: Callable | None = None

    def __call__(self, handler):
        COMMANDS[self.name] = self
        HANDLERS[self.name] = handler
        return handler


COMMANDS: dict[str, Command] = {}
HANDLERS: dict[str, Callable] = {}
BOUND = Flag("bound", DEFAULT_BRUTE_FORCE_BOUND, ceiling=MAX_BRUTE_FORCE_BOUND,
             help=f"brute-force interval-size bound, 0..{MAX_BRUTE_FORCE_BOUND}")
DEGREE = Flag("i", ceiling=lambda config: config.n // 2,
              help="restrict to a single cohomological degree")


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
    payload = {"command": config.command, **payload}
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


def _check(config) -> None:
    """Refuse a missing or out-of-range flag, or a run whose interval exceeds
    --bound, before any work starts."""
    spec = COMMANDS[config.command]
    for flag in spec.flags:
        value = getattr(config, flag.name)
        if value is None and flag.required:
            raise ValueError(f"{config.command} needs --{flag.name}")
        if value is None or flag.type is not int:
            continue
        if flag.floor is not None and value < flag.floor:
            raise ValueError(f"--{flag.name} must be at least {flag.floor}")
        ceiling = flag.ceiling(config) if callable(flag.ceiling) else flag.ceiling
        if ceiling is not None and value > ceiling:
            raise ValueError(f"--{flag.name} is limited to {ceiling} for {config.command}")
    size = spec.interval(config) if spec.interval else None
    if size is not None and size > config.bound:
        raise ValueError(f"{config.command} needs interval size {size}, "
                         f"beyond the brute-force bound {config.bound}")


def _row_range(config) -> list[int]:
    return [config.i] if config.i is not None else list(range(config.n // 2 + 1))


@Command("betti-table", "Betti numbers dim H^i = A_{2i} * C(n, 2i) with exact secant numbers A.",
         (Flag("n", required=True, ceiling=cohomology.FORMULA_DEGREE_LIMIT), DEGREE), table=True)
def cmd_betti_table(config) -> int:
    rows = [
        {"n": config.n, "i": i, "betti": cohomology.betti(config.n, i)}
        for i in _row_range(config)
    ]
    _emit({"rows": rows}, rows, config)
    return 0


@Command("rep-table", "Irreducible multiplicities of H^i from the signed induction formula; "
         "dimensions must reproduce the Betti numbers.",
         (BOUND, Flag("n", required=True, ceiling=cohomology.FORMULA_DEGREE_LIMIT), DEGREE,
          Flag("route", "induction", type=str, choices=("induction", "poset"))), table=True,
         interval=lambda config: 2 * max(_row_range(config)) if config.route == "poset" else None)
def cmd_rep_table(config) -> int:
    n = config.n
    rows = []
    json_rows = []
    for i in _row_range(config):
        if config.route == "induction":
            rep = cohomology.rep_via_induction(n, i)
        else:
            rep = cohomology.rep_via_poset(n, i)
        betti = cohomology.betti(n, i)
        if rep.dimension() != betti:
            sys.stderr.write(json.dumps(
                {"discrepancy": "dimension mismatch", "n": n, "i": i}) + "\n")
            return 1
        rows.append({"n": n, "i": i, "betti": betti, "rep": _rep_compact(rep)})
        json_rows.append({"n": n, "i": i, "betti": betti,
                          "multiplicities": _rep_to_multiplicities(rep)})
    _emit({"route": config.route, "rows": json_rows}, rows, config)
    return 0


@Command("verify-cohomology", "Degreewise identity in n and t between the interval-homology "
         "series of the H^i and the series (sum h_n) * (1 + sum e_n t^(n/2))^-1.",
         (BOUND, Flag("N", 8)), interval=lambda config: config.N)
def cmd_verify_cohomology(config) -> int:
    lhs = cohomology.cohomology_series_poset(config.N)
    rhs = cohomology.cohomology_series_formula(config.N)
    cells = sorted(set(lhs.terms) | set(rhs.terms))
    for (n, tpow) in cells:
        if lhs.term(n, tpow) != rhs.term(n, tpow):
            _emit({"verified": False, "first_failing": {"n": n, "t_power": tpow}}, None, config)
            return 1
    _emit({"verified": True, "N": config.N}, None, config)
    return 0


@Command("verify-poset-series", "Degreewise identity between alternating top interval "
         "homology of the even-subset lattice and the inverse of 1 + sum of even h_n.",
         (BOUND, Flag("N", 8)), interval=lambda config: config.N)
def cmd_verify_poset_series(config) -> int:
    lhs, rhs = poset_homology.poset_series_sides(config.N)
    for n in sorted(set(lhs) | set(rhs)):
        if lhs.get(n, SchurVector.zero(n)) != rhs.get(n, SchurVector.zero(n)):
            _emit({"verified": False, "first_failing": {"n": n}}, None, config)
            return 1
    _emit({"verified": True, "N": config.N}, None, config)
    return 0


@Command("poset-homology", "Homology ranks of the interval below [n] in the even-subset "
         "lattice, with the symmetric-group character on the top degree.",
         (BOUND, Flag("n", required=True)), interval=lambda config: config.n)
def cmd_poset_homology(config) -> int:
    n = config.n
    ranks = poset_homology.homology_ranks(n)
    char = poset_homology.equivariant_top_character(n)
    payload = {
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


@Command("euler-check", "Cell-count Euler characteristic sum over orbit chains of (-2)^(n-m) "
         "against the alternating sum of Betti numbers.",
         (Flag("N", 10, floor=1, ceiling=300),), table=True)
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
    payload = {"verified": first_bad is None, "rows": rows}
    if first_bad is not None:
        payload["first_failing"] = {"n": first_bad}
    _emit(payload, rows, config)
    return 0 if first_bad is None else 1


@Command("model-check", "Membership, orbit chain and degeneration family for a point of the "
         "compactified torus; without a point, randomized action equivariance.",
         (Flag("n", floor=1, ceiling=MODEL_CHECK_MAX_N),
          Flag("point", type=str, help="path to a point JSON file, or - for stdin"),
          Flag("seed", 0, floor=None), Flag("trials", 50, ceiling=1000)))
def cmd_model_check(config) -> int:
    if config.point is not None:
        if config.point == "-":
            data = json.load(sys.stdin)
        else:
            with open(config.point) as fh:
                data = json.load(fh)
        point = wonderful_model.ModelPoint.from_json(data, max_n=MODEL_CHECK_MAX_N)
        membership = wonderful_model.is_on_model(point)
        payload = {"n": point.n, "on_model": membership}
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
    _emit(report, None, config)
    return 0 if report["ok"] else 1


@Command("cup-dim", "Dimension 3 * C(n, 4) of the span of products of degree-one classes, "
         "strictly below dim H^2 = 5 * C(n, 4).",
         (Flag("n", required=True, floor=2, ceiling=40),))
def cmd_cup_dim(config) -> int:
    dim = cup_product.cup_span_dimension(config.n)
    payload = {
        "n": config.n, "dimension": dim,
        "betti_2": cohomology.betti(config.n, 2),
        "spans_h2": dim == cohomology.betti(config.n, 2),
    }
    _emit(payload, None, config)
    return 0


@Command("cup-rep", "The cup-product span as a representation: the 4-subset pairing module "
         "induced up, cross-checked by a signed-permutation character.",
         (Flag("n", required=True, floor=4, ceiling=10000),))
def cmd_cup_rep(config) -> int:
    checked = config.n <= CUP_REP_CROSS_CHECK_LIMIT
    rep = cup_product.cup_span_representation(config.n, cross_check=checked)
    payload = {
        "n": config.n,
        "multiplicities": _rep_to_multiplicities(rep),
        "dimension": rep.dimension(),
        "character_cross_checked": checked,
    }
    _emit(payload, None, config)
    return 0


@Command("branching-check", "Complete search for a module one rank up restricting to the "
         "cup-product span; infeasibility certifies non-extendability.",
         (Flag("n", required=True, floor=4, ceiling=29),))
def cmd_branching_check(config) -> int:
    cert = cup_product.branching_infeasibility(config.n)
    _emit({"n": config.n, "status": cert["status"], "witness": cert["witness"]}, None, config)
    return 0


@Command("whitney", "Whitney homology of the even-subset lattice: induced top interval "
         "homologies, whose alternating sum vanishes for even n >= 2.",
         (BOUND, Flag("n", required=True)), table=True,
         interval=lambda config: 2 * (config.n // 2))
def cmd_whitney(config) -> int:
    n = config.n
    rows = []
    json_rows = []
    total = SchurVector.zero(n)
    for i in range(n // 2 + 1):
        vec = poset_homology.whitney_homology(n, i)
        total = total - vec if i % 2 else total + vec
        rows.append({"n": n, "i": i, "dimension": vec.dimension(),
                     "rep": _rep_compact(vec)})
        json_rows.append({"n": n, "i": i, "dimension": vec.dimension(),
                          "multiplicities": _rep_to_multiplicities(vec)})
    claimed = n >= 2 and n % 2 == 0  # the sum vanishes only for even n >= 2
    payload = {"n": n, "rows": json_rows,
               "alternating_sum_zero": total.is_zero() if claimed else None}
    _emit(payload, rows, config)
    return 1 if claimed and not total.is_zero() else 0


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
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.description)
        p.add_argument("--describe", action="store_true",
                       help="print what this command verifies and exit")
        formats = ("json", "csv", "plain") if spec.table else ("json", "plain")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        for flag in spec.flags:
            p.add_argument(f"--{flag.name}", type=flag.type, default=flag.default,
                           choices=flag.choices, help=flag.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = parser.parse_args(argv)
        if config.describe:
            sys.stdout.write(COMMANDS[config.command].description + "\n")
            return 0
        _check(config)
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
