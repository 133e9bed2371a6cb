"""Command-line surface: every verification and table generator, with
machine-readable output.

Exit status: 0 when the requested check verifies (or a table is produced),
1 with a structured discrepancy report naming the first failure, 2 for
malformed input or out-of-bound parameters. Only UsageError means bad input:
the parser, _check, model-check's flag conflicts, the point-file read and an
unopenable --out raise it. Any other exception from a handler is a fault of
the program, and exits 1 with one JSON object on stderr: {"discrepancy": ...}
for a failed cross-check (a plain ArithmeticError), {"fault": ...}, naming
the exception's type, for anything else, ZeroDivisionError and the other
ArithmeticError subclasses included. Identical invocations produce
byte-identical output; orderings are fixed everywhere.

A handler maps the parsed flags to (payload, status), the JSON report and
its exit status, 0 or 1, or raises. Handlers write nothing: main writes
stdout, by its one _emit call, stderr and the exit status, so a handler that
raises after partial work leaves stdout empty.

Each command is declared once, by a Command on its handler: its description,
whether it offers csv, every flag with its default, floor and ceiling, and the
interval size a run needs. build_parser and _check loop over these; _check
refuses an out-of-range flag, or an interval of odd size or above the
library's brute-force ceiling, poset_homology.MAX_BRUTE_FORCE_BOUND, before
any work.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from typing import Callable, NamedTuple

from . import cohomology, cup_product, poset_homology, wonderful_model
from .combinatorics import MAX_PARTITION_N, MAX_STIRLING_N, partitions_of
from .poset_homology import MAX_BRUTE_FORCE_BOUND
from .rep_ring import SchurVector


class UsageError(ValueError):
    """Bad input: the one exception main reports with exit 2."""


class Flag(NamedTuple):
    """Option --name. An int flag lies in floor..ceiling, and a callable
    ceiling reads the other flags. README tabulates the cost of one run at
    each fixed ceiling and one step past it; a ceiling bounds growth and need
    not mark a cliff. A str flag is checked by argparse against its choices,
    if any."""

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
    it needs none); _check holds that size to MAX_BRUTE_FORCE_BOUND, so the
    flags that set it need no ceiling of their own."""

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
DEGREE = Flag("i", ceiling=lambda config: config.n // 2,
              help="restrict to a single cohomological degree")


def _partition_str(lam) -> str:
    return "[" + ",".join(map(str, lam)) + "]"


def _rep_to_multiplicities(vec: SchurVector) -> list[dict]:
    """The multiplicities of a module cli prints, H^i, Whitney homology or the
    cup span, each a genuine representation: a multiplicity that is negative
    or not whole is a failed check."""
    for lam, c in vec.items():
        if c < 0 or c.denominator != 1:
            raise ArithmeticError(f"the multiplicity {c} of {_partition_str(lam)} is negative "
                                  "or not whole, so the module is not a representation")
    return [{"partition": list(lam), "multiplicity": int(c)} for lam, c in vec.items()]


def _cells(row: dict) -> dict:
    """A JSON row as csv/plain cells: its multiplicities list becomes the rep
    cell, [3,1]:1;[2,2]:1, or 0 for the zero module."""
    cells = dict(row)
    if "multiplicities" in cells:  # last in its row, so rep takes its place
        cells["rep"] = ";".join(f"{_partition_str(m['partition'])}:{m['multiplicity']}"
                                for m in cells.pop("multiplicities")) or "0"
    return cells


def _emit(payload: dict, config) -> None:
    """Write the payload, with the command's name first, to --out or stdout.
    json prints it whole. csv and plain print payload["rows"] by one rule,
    each row read off its JSON row by _cells; plain prints a payload without
    rows as one JSON line."""
    payload = {"command": config.command, **payload}
    rows = [_cells(row) for row in payload.get("rows", ())]
    if config.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif config.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    elif "rows" in payload:
        text = "\n".join(" ".join(str(v) for v in row.values()) for row in rows) + "\n"
    else:
        text = json.dumps(payload) + "\n"
    if config.out:
        try:
            fh = open(config.out, "w")
        except OSError as exc:
            raise UsageError(str(exc)) from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(config) -> None:
    """Refuse a missing or out-of-range flag, or a run whose interval has an
    odd size, which the even-subset lattice has no interval of, or exceeds
    MAX_BRUTE_FORCE_BOUND, the largest interval the library builds, before
    any work starts."""
    spec = COMMANDS[config.command]
    for flag in spec.flags:
        value = getattr(config, flag.name)
        if value is None and flag.required:
            raise UsageError(f"{config.command} needs --{flag.name}")
        if value is None or flag.type is not int:
            continue
        if flag.floor is not None and value < flag.floor:
            raise UsageError(f"--{flag.name} must be at least {flag.floor}")
        ceiling = flag.ceiling(config) if callable(flag.ceiling) else flag.ceiling
        if ceiling is not None and value > ceiling:
            raise UsageError(f"--{flag.name} is limited to {ceiling} for {config.command}")
    size = spec.interval(config) if spec.interval else None
    if size is not None and size % 2:
        raise UsageError("interval size must be even and nonnegative")
    if size is not None and size > MAX_BRUTE_FORCE_BOUND:
        raise UsageError(f"{config.command} needs interval size {size}, "
                         f"beyond the brute-force bound {MAX_BRUTE_FORCE_BOUND}")


def _row_range(config) -> list[int]:
    return [config.i] if config.i is not None else list(range(config.n // 2 + 1))


@Command("betti-table", "Betti numbers dim H^i = A_{2i} * C(n, 2i) with exact secant numbers A.",
         (Flag("n", required=True, ceiling=cohomology.FORMULA_DEGREE_LIMIT), DEGREE), table=True)
def cmd_betti_table(config) -> tuple[dict, int]:
    rows = [
        {"n": config.n, "i": i, "betti": cohomology.betti(config.n, i)}
        for i in _row_range(config)
    ]
    return {"rows": rows}, 0


@Command("rep-table", "Irreducible multiplicities of H^i from the signed induction formula; "
         "dimensions must reproduce the Betti numbers.",
         (Flag("n", required=True, ceiling=cohomology.FORMULA_DEGREE_LIMIT), DEGREE,
          Flag("route", "induction", type=str, choices=("induction", "poset"))), table=True,
         interval=lambda config: 2 * max(_row_range(config)) if config.route == "poset" else None)
def cmd_rep_table(config) -> tuple[dict, int]:
    n = config.n
    rows = []
    for i in _row_range(config):
        if config.route == "induction":
            rep = cohomology.rep_via_induction(n, i)
        else:
            rep = cohomology.rep_via_poset(n, i)
        betti = cohomology.betti(n, i)
        if rep.dimension() != betti:
            raise ArithmeticError(f"rep-table at n = {n}, i = {i}: the representation has "
                                  f"dimension {rep.dimension()}, not the Betti number {betti}")
        rows.append({"n": n, "i": i, "betti": betti,
                     "multiplicities": _rep_to_multiplicities(rep)})
    return {"route": config.route, "rows": rows}, 0


@Command("verify-cohomology", "Degreewise identity in n and t between the interval-homology "
         "series of the H^i and the series (sum h_n) * (1 + sum e_n t^(n/2))^-1.",
         (Flag("N", 8),), interval=lambda config: 2 * (config.N // 2))
def cmd_verify_cohomology(config) -> tuple[dict, int]:
    lhs = cohomology.cohomology_series_poset(config.N)
    rhs = cohomology.cohomology_series_formula(config.N)
    cells = sorted(set(lhs.terms) | set(rhs.terms))
    for (n, tpow) in cells:
        if lhs.term(n, tpow) != rhs.term(n, tpow):
            return {"verified": False, "first_failing": {"n": n, "t_power": tpow}}, 1
    return {"verified": True, "N": config.N}, 0


@Command("verify-poset-series", "Degreewise identity between alternating top interval "
         "homology of the even-subset lattice and the inverse of 1 + sum of even h_n.",
         (Flag("N", 8),), interval=lambda config: 2 * (config.N // 2))
def cmd_verify_poset_series(config) -> tuple[dict, int]:
    lhs, rhs = cohomology.poset_series_sides(config.N)
    for n in lhs:  # both sides hold every even degree up to N, in order
        if lhs[n] != rhs[n]:
            return {"verified": False, "first_failing": {"n": n}}, 1
    return {"verified": True, "N": config.N}, 0


@Command("poset-homology", "Homology ranks of the interval below [n] in the even-subset "
         "lattice, with the symmetric-group character on the top degree.",
         (Flag("n", required=True),), interval=lambda config: config.n)
def cmd_poset_homology(config) -> tuple[dict, int]:
    n = config.n
    ranks = poset_homology.homology_ranks(n)
    char = poset_homology.equivariant_top_character(n)
    return {
        "n": n,
        "ranks": {str(m): ranks[m] for m in sorted(ranks)},
        "character": {
            ",".join(map(str, mu)): char(mu)
            for mu in partitions_of(n)
        },
        "concentrated": set(ranks) == {n // 2},
    }, 0


@Command("euler-check", "Cell-count Euler characteristic sum over orbit chains of (-2)^(n-m) "
         "against the alternating sum of Betti numbers.",
         (Flag("N", 10, floor=1, ceiling=MAX_STIRLING_N),), table=True)
def cmd_euler_check(config) -> tuple[dict, int]:
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
    return payload, 0 if first_bad is None else 1


@Command("model-check", "Membership, orbit chain and degeneration family for a point of the "
         "compactified torus; without a point, randomized action equivariance.",
         (Flag("n", floor=1, ceiling=wonderful_model.MAX_POINT_N),
          Flag("point", type=str, help="path to a point JSON file, or - for stdin"),
          Flag("seed", floor=None), Flag("trials", floor=1, ceiling=1000)))
def cmd_model_check(config) -> tuple[dict, int]:
    if config.point is not None:
        given = [name for name in ("n", "trials", "seed") if getattr(config, name) is not None]
        if given:
            raise UsageError(f"model-check takes --point or --{given[0]}, not both")
        try:
            with nullcontext(sys.stdin) if config.point == "-" else open(config.point) as fh:
                data = json.load(fh)
            point = wonderful_model.ModelPoint.from_json(data)
        except RecursionError:  # JSON nested past the interpreter's limit
            raise UsageError("the point file is nested too deeply") from None
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise UsageError(str(exc)) from None
        membership = wonderful_model.is_on_model(point)
        payload = {"n": point.n, "on_model": membership}
        if membership:
            witness = wonderful_model.degeneration_witness(point)
            payload["orbit"] = witness["chain"]
            payload["degeneration_ok"] = witness["ok"]
            payload["degeneration"] = witness
            return payload, 0 if witness["ok"] else 1
        violation = wonderful_model.first_violation(point)
        if violation is None:
            raise ArithmeticError("the stage scan puts the point off the model, "
                                  "but every nested pair passes the rank-one test")
        payload["first_violation"] = violation
        return payload, 1
    if config.n is None:
        raise UsageError("model-check needs --point or --n")
    # --trials defaults to 50 and --seed to 0; unset, they read None, so that
    # a point file given with either is refused above.
    report = wonderful_model.equivariance_report(
        config.n, 50 if config.trials is None else config.trials, config.seed or 0)
    return report, 0 if report["ok"] else 1


def _cup_span(n: int) -> tuple[SchurVector, bool]:
    """The cup span at n, and whether the signed trace cross-checked it: the
    character side lists classes up to MAX_PARTITION_N, so it checks up to
    there. cup-dim and cup-rep both pay for it, so both cap --n at 10000."""
    checked = n <= MAX_PARTITION_N
    return cup_product.cup_span_representation(n, cross_check=checked), checked


@Command("cup-dim", "Dimension 3 * C(n, 4) of the span of products of degree-one classes, "
         "strictly below dim H^2 = 5 * C(n, 4).",
         (Flag("n", required=True, floor=2, ceiling=10000),))
def cmd_cup_dim(config) -> tuple[dict, int]:
    dim = _cup_span(config.n)[0].dimension()
    betti_2 = cohomology.betti(config.n, 2)
    return {
        "n": config.n, "dimension": dim,
        "betti_2": betti_2,
        "spans_h2": dim == betti_2,
    }, 0


@Command("cup-rep", "The cup-product span as a representation: the 4-subset pairing module "
         "induced up, cross-checked by a signed-permutation character.",
         (Flag("n", required=True, floor=4, ceiling=10000),))
def cmd_cup_rep(config) -> tuple[dict, int]:
    rep, checked = _cup_span(config.n)
    return {
        "n": config.n,
        "multiplicities": _rep_to_multiplicities(rep),
        "dimension": rep.dimension(),
        "character_cross_checked": checked,
    }, 0


@Command("branching-check", "Complete search for a module one rank up restricting to the "
         "cup-product span; infeasibility certifies non-extendability.",
         (Flag("n", required=True, floor=4, ceiling=29),))
def cmd_branching_check(config) -> tuple[dict, int]:
    cert = cup_product.branching_infeasibility(config.n)
    return {"n": config.n, "status": cert["status"], "witness": cert["witness"]}, 0


@Command("whitney", "Whitney homology of the even-subset lattice: induced top interval "
         "homologies, whose alternating sum vanishes for even n >= 2.",
         (Flag("n", required=True),), table=True,
         interval=lambda config: 2 * (config.n // 2))
def cmd_whitney(config) -> tuple[dict, int]:
    n = config.n
    rows = []
    total = SchurVector.zero(n)
    for i in range(n // 2 + 1):
        vec = poset_homology.whitney_homology(n, i)
        total = total - vec if i % 2 else total + vec
        rows.append({"n": n, "i": i, "dimension": vec.dimension(),
                     "multiplicities": _rep_to_multiplicities(vec)})
    claimed = n >= 2 and n % 2 == 0  # the sum vanishes only for even n >= 2
    payload = {"n": n, "rows": rows,
               "alternating_sum_zero": total.is_zero() if claimed else None}
    return payload, 1 if claimed and not total.is_zero() else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UsageError, so main reports them as JSON with exit 2."""

    def error(self, message):
        raise UsageError(message)


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
        payload, status = HANDLERS[config.command](config)
        _emit(payload, config)
        return status
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # a failed cross-check, or a fault of the program
        if type(exc) is ArithmeticError:
            report = {"discrepancy": str(exc)}
        else:
            report = {"fault": f"{type(exc).__name__}: {exc}"}
        sys.stderr.write(json.dumps(report) + "\n")
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
