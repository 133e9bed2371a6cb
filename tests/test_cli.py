import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from coxtoric import cli, cohomology, cup_product, poset_homology, rep_ring, wonderful_model
from coxtoric.combinatorics import all_chains
from coxtoric.rep_ring import ClassFunction, RepSeries, SchurVector
from coxtoric.wonderful_model import (
    ModelPoint,
    degeneration_witness,
    first_violation,
    representative_point,
    torus_act,
)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_table(capsys):
    code, out, _ = run_cli(capsys, "betti-table", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert [(r["i"], r["betti"]) for r in payload["rows"]] == [
        (0, 1), (1, 15), (2, 75), (3, 61)]


def test_single_row_selection(capsys):
    code, out, _ = run_cli(capsys, "betti-table", "--n", "6", "--i", "2")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 6, "i": 2, "betti": 75}]
    code, _, err = run_cli(capsys, "betti-table", "--n", "6", "--i", "5")
    assert code == 2 and "--i" in err
    code, out, _ = run_cli(capsys, "rep-table", "--n", "6", "--i", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["betti"] == 61


def test_poset_row_needs_only_its_interval(capsys):
    """Row 1 at n = 12 needs interval size 2, inside the default bound 8,
    although rows 5 and 6 of the same n would need 10 and 12."""
    code, out, err = run_cli(capsys, "rep-table", "--n", "12", "--route", "poset", "--i", "1")
    assert code == 0 and err == ""
    [row] = json.loads(out)["rows"]
    assert (row["i"], row["betti"]) == (1, 66)
    code, out, err = run_cli(capsys, "rep-table", "--n", "12", "--route", "poset", "--i", "5")
    assert code == 2 and out == "" and "bound" in json.loads(err)["error"]


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "rep-table", "--n", "5")
    _, second, _ = run_cli(capsys, "rep-table", "--n", "5")
    assert first == second


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "betti-table", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,i,betti"
    assert lines[1:] == ["4,0,1", "4,1,6", "4,2,5"]


def test_csv_rejected_for_non_table(capsys):
    code, _, err = run_cli(capsys, "verify-cohomology", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_plain_format(capsys):
    code, out, _ = run_cli(capsys, "betti-table", "--n", "4", "--format", "plain")
    assert code == 0
    assert out.splitlines() == ["4 0 1", "4 1 6", "4 2 5"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "betti-table", "--n", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "betti-table"


def test_verify_commands(capsys):
    code, out, _ = run_cli(capsys, "verify-cohomology", "--N", "6")
    assert code == 0 and json.loads(out)["verified"]
    code, out, _ = run_cli(capsys, "verify-poset-series", "--N", "6")
    assert code == 0 and json.loads(out)["verified"]


def test_describe(capsys):
    for command in cli.HANDLERS:
        code, out, _ = run_cli(capsys, command, "--describe")
        assert code == 0
        assert out.strip()
    descriptions = {cli.COMMANDS[c].description for c in cli.HANDLERS}
    assert len(descriptions) == len(cli.HANDLERS)


def test_out_of_bounds(capsys):
    code, _, err = run_cli(capsys, "betti-table", "--n", "20")
    assert code == 2 and "limited" in err
    code, _, err = run_cli(capsys, "poset-homology", "--n", "12")
    assert code == 2
    code, _, err = run_cli(capsys, "verify-cohomology", "--N", "10")
    assert code == 2
    code, out, err = run_cli(capsys, "whitney", "--n", "10")
    assert code == 2 and out == "" and "bound" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["betti-table", "--n", "-2"],
    ["rep-table", "--n", "-2"],
    ["whitney", "--n", "-2"],
    ["betti-table", "--n", "-2", "--format", "csv"],
    ["euler-check", "--N", "0", "--format", "csv"],
    ["model-check", "--n", "4", "--trials", "-5"],
    ["poset-homology", "--n", "4", "--bound", "12"],
    ["betti-table", "--n", "4", "--bound", "-2"],
])
def test_out_of_domain_integers(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "error" in json.loads(err)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["betti-table", "--n", "abc"],
    ["cup-dim", "--n", "5", "--i", "2"],
    ["betti-table", "--bogus", "1"],
    [],
])
def test_usage_errors_are_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert list(json.loads(err)) == ["error"]


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["whitney", "--help"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: coxtoric") and err == ""


FIXED_CEILINGS = {(name, flag.name): flag.ceiling
                  for name, spec in cli.COMMANDS.items() for flag in spec.flags
                  if isinstance(flag.ceiling, int)}


@pytest.mark.parametrize("command,flag", sorted(FIXED_CEILINGS))
def test_ceilings(capsys, command, flag):
    ceiling = FIXED_CEILINGS[command, flag]
    for value in (ceiling + 1, 10 ** 7):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, f"--{flag}", str(value))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"limited to {ceiling}" in json.loads(err)["error"]


def test_every_integer_flag_is_bounded(capsys):
    """Walk the registrations: every integer flag has a ceiling, fixed or
    read from another flag (--i by --n), or is bounded through the interval
    size by --bound. Only --seed is unbounded. At 10**7 each bounded flag is
    refused at once, with the other required flags at 4."""
    unbounded = []
    for name, spec in cli.COMMANDS.items():
        for flag in spec.flags:
            if flag.type is not int:
                continue
            if flag.ceiling is None and spec.interval is None:
                unbounded.append((name, flag.name))
                continue
            others = [tok for f in spec.flags if f.required and f is not flag
                      for tok in (f"--{f.name}", "4")]
            start = time.perf_counter()
            code, out, err = run_cli(capsys, name, f"--{flag.name}", str(10 ** 7), *others)
            assert time.perf_counter() - start < 1, (name, flag.name)
            assert code == 2 and out == "", (name, flag.name)
            error = json.loads(err)["error"]
            assert "limited to" in error or "bound" in error, (name, flag.name, error)
    assert unbounded == [("model-check", "seed")]
    with_bound = {name for name, spec in cli.COMMANDS.items() if cli.BOUND in spec.flags}
    with_interval = {name for name, spec in cli.COMMANDS.items() if spec.interval}
    assert with_bound == with_interval == {"rep-table", "verify-cohomology",
                                           "verify-poset-series", "poset-homology", "whitney"}


def test_poset_route_refused_before_any_row(monkeypatch, capsys):
    """rep-table --n 12 --route poset needs interval size 12, beyond the
    default bound 8; it is refused before a single row is computed."""
    def no_work(n, i):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cohomology, "rep_via_poset", no_work)
    code, out, err = run_cli(capsys, "rep-table", "--n", "12", "--route", "poset")
    assert code == 2 and out == ""
    assert "bound" in json.loads(err)["error"]


README_POINT = {"n": 3, "components": [
    {"subset": [1, 2, 3], "coords": ["0", "0", "1"]},
    {"subset": [1, 2], "coords": ["1", "2"]},
    {"subset": [1, 3], "coords": ["0", "1"]},
    {"subset": [2, 3], "coords": ["0", "1"]},
]}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_model_output_order_pinned(tmp_path, capsys):
    """Model output is laid out in the (size, lex) subset order and found by
    the nested-pair scan order; these digests and violations pin both."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps(README_POINT))
    code, out, _ = run_cli(capsys, "model-check", "--point", str(path))
    assert code == 0
    assert _sha(out) == "f86aab5db397598d86eff20ba6c91d2b3f91c63a77b14da2c07780cebc6ae189"
    code, out, _ = run_cli(capsys, "model-check", "--n", "5", "--seed", "3", "--trials", "20")
    assert code == 0
    assert _sha(out) == "c382527970760d0772d6985e558e06a74c12aab198b58a9e88aedf6beb9107a2"

    depth3 = (frozenset({1, 2, 3, 4}), frozenset({2, 3, 4}), frozenset({4}), frozenset())
    p = torus_act((2, Fraction(-3, 2), 5, 7), representative_point(depth3))
    assert _sha(json.dumps(p.to_json())) == (
        "e8b262a1b69ef3b601f9fc27e5fd24650a16b95926514288172b5750dc8c4736")
    assert _sha(json.dumps(degeneration_witness(p))) == (
        "5ae11656066f35fa9ae8fd677fec1cd8a7a5838486975c08e134beafa7d787c4")

    # Replacing one component by (1, 2, ...) breaks several nested pairs;
    # the scan reports the first in order.
    bent = []
    for subset in sorted(p.components, key=sorted):
        if len(subset) > 1:
            comps = dict(p.components)
            comps[subset] = tuple(range(1, len(subset) + 1))
            bent.append(first_violation(ModelPoint(4, comps)))
    assert bent == [
        ([1, 2], [1, 2, 3]), ([1, 2], [1, 2, 3]), ([1, 2], [1, 2, 3, 4]),
        ([1, 2], [1, 2, 4]), ([1, 3], [1, 2, 3]), ([1, 3], [1, 3, 4]),
        ([1, 4], [1, 2, 4]), ([2, 3], [2, 3, 4]), ([2, 3], [2, 3, 4]),
        ([2, 4], [2, 3, 4]), ([3, 4], [2, 3, 4])]


README = Path(__file__).resolve().parent.parent / "README.md"
# The five README poset commands at the default interval bound of 8, and the
# series identity at the largest bound.
POSET_ROUTE = ("verify-cohomology --N 8", "verify-poset-series --N 8", "poset-homology --n 8",
               "whitney --n 8", "rep-table --n 8 --route poset",
               "verify-poset-series --N 10 --bound 10")


def test_commands_reach_no_general_product(monkeypatch, tmp_path, capsys):
    """Every series inverse a command needs comes from even_series_inverse:
    with schur_multiply, h_expansion and the RepSeries product and inverse
    made to raise, the README commands and the poset-route commands print
    what they print unpatched."""
    text = README.read_text()
    commands = [line.split("  #")[0].split()[1:] for line in text.splitlines()
                if line.startswith("coxtoric ")]
    assert len(commands) == 12
    commands += [row.split() for row in POSET_ROUTE]
    (tmp_path / "point.json").write_text(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    monkeypatch.chdir(tmp_path)

    def unreachable(*args, **kwargs):
        raise AssertionError("a command reached the general Schur product")

    with monkeypatch.context() as patch:
        for owner, name in ((rep_ring, "schur_multiply"), (rep_ring, "h_expansion"),
                            (RepSeries, "invert"), (RepSeries, "__mul__")):
            patch.setattr(owner, name, unreachable)
        rep_ring.even_series_inverse.cache_clear()
        patched = [run_cli(capsys, *argv) for argv in commands]
    rep_ring.even_series_inverse.cache_clear()
    assert patched == [run_cli(capsys, *argv) for argv in commands]
    assert all(code == 0 and out for code, out, _ in patched)


def test_unknown_command(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_poset_homology_output(capsys):
    code, out, _ = run_cli(capsys, "poset-homology", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {"2": 5}
    assert payload["character"]["1,1,1,1"] == 5
    assert payload["concentrated"]


def test_euler_check(capsys):
    code, out, _ = run_cli(capsys, "euler-check", "--N", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"]
    assert payload["rows"][1] == {"n": 2, "cells": 0, "alternating_betti": 0, "ok": True}


def test_model_check_random(capsys):
    code, out, _ = run_cli(capsys, "model-check", "--n", "4", "--seed", "1",
                           "--trials", "20")
    assert code == 0
    assert json.loads(out)["ok"]


def test_model_check_point_file(tmp_path, capsys):
    chain = all_chains(3)[5]
    point = representative_point(chain)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point.to_json()))
    code, out, _ = run_cli(capsys, "model-check", "--point", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["on_model"] and payload["degeneration_ok"]
    assert payload["orbit"] == [sorted(b) for b in chain]


def test_model_check_point_off_model(tmp_path, capsys):
    bad = {
        "n": 3,
        "components": [
            {"subset": [1, 2, 3], "coords": ["0", "0", "1"]},
            {"subset": [1, 2], "coords": ["1", "2"]},
            {"subset": [1, 3], "coords": ["1", "1"]},
            {"subset": [2, 3], "coords": ["0", "1"]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "model-check", "--point", str(path))
    assert code == 1
    payload = json.loads(out)
    assert not payload["on_model"]
    assert payload["first_violation"] == [[1, 3], [1, 2, 3]]


@pytest.mark.parametrize("text", [
    "{not json",
    '[1, 2]',
    '{"n": "3", "components": []}',
    '{"n": 3, "components": 5}',
    '{"n": 3, "components": [{"subset": 5, "coords": ["1"]}]}',
    '{"n": 3, "components": [{"subset": [1, 2], "coords": [null, 1]}]}',
], ids=["not-json", "list", "string-n", "int-components", "int-subset", "null-coord"])
def test_model_check_malformed_point(tmp_path, capsys, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "model-check", "--point", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
    assert "Traceback" not in err


@pytest.mark.parametrize("components", [
    README_POINT["components"] + [{"subset": [1, 2], "coords": ["1", "2"]}],
    [README_POINT["components"][0], {"subset": [2, 1], "coords": ["2", "1"]},
     *README_POINT["components"][2:]],
], ids=["repeated-subset", "unsorted-subset"])
def test_model_check_point_rejects_subset_order(tmp_path, capsys, components):
    """A subset listed twice or out of order is refused, not silently
    dropped or read in sorted order."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 3, "components": components}))
    code, out, err = run_cli(capsys, "model-check", "--point", str(path))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [8, 10**7])
def test_model_check_point_obeys_ceiling(tmp_path, capsys, n):
    """The point's n is checked before any subset of [n] is built."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "components": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "model-check", "--point", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "limited to 7" in json.loads(err)["error"]


@pytest.mark.parametrize("coord", ["1e100000000", "1e-1000000"])
def test_model_check_point_rejects_exponents(tmp_path, capsys, coord):
    """An exponent is refused before Fraction would expand it digit by digit."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "components": [
        {"subset": [1, 2], "coords": [coord, "1"]}]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "model-check", "--point", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "exponent" in json.loads(lines[0])["error"]
    assert "Traceback" not in err


def test_failed_invariance_reaches_the_report(monkeypatch, capsys):
    """A permuted point off the model is reported as a failure (exit 1), not
    passed on to orbit_of, which would raise and exit 2."""
    permute = wonderful_model.permute_point

    def bent_permute(w, p):
        comps = dict(permute(w, p).components)
        comps[frozenset({1, 2})] = (Fraction(1), Fraction(1))
        comps[frozenset({1, 2, 3})] = (Fraction(1), Fraction(2), Fraction(3))
        return ModelPoint(p.n, comps)

    monkeypatch.setattr(wonderful_model, "permute_point", bent_permute)
    report = wonderful_model.equivariance_report(4, 3, 0)
    assert not report["ok"]
    assert {f["property"] for f in report["failures"]} == {"permutation_invariance"}
    code, out, _ = run_cli(capsys, "model-check", "--n", "4", "--trials", "3")
    assert code == 1
    assert json.loads(out)["failures"] == report["failures"]


@pytest.mark.parametrize("n", ["3", "5"])
def test_model_check_point_and_n_refused(tmp_path, capsys, n):
    """--n is not read with a point file, so it is refused, whether or not it
    equals the point's n."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps(README_POINT))
    code, out, err = run_cli(capsys, "model-check", "--point", str(path), "--n", n)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "model-check takes --point or --n, not both"}


@pytest.mark.parametrize("flags", [("--trials", "5"), ("--seed", "3"),
                                   ("--trials", "5", "--seed", "3"), ("--seed", "0")])
def test_model_check_point_and_randomized_flags_refused(tmp_path, capsys, flags):
    """--trials and --seed shape the randomized run, which a point file does
    not make, so either is refused with --point, even at its default value."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps(README_POINT))
    code, out, err = run_cli(capsys, "model-check", "--point", str(path), *flags)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"model-check takes --point or {flags[0]}, not both"}


def test_model_check_repeated_zero_denominator(tmp_path, capsys):
    """A "1/0" in several components exits 2 on every run: no parse is kept
    from one run, or one construction, to the next."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 3, "components": [
        {"subset": [1, 2, 3], "coords": ["1", "1/0", "1/0"]},
        {"subset": [1, 2], "coords": ["1/0", "2"]}]}))
    for _ in range(2):
        code, out, err = run_cli(capsys, "model-check", "--point", str(path))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "zero denominator" in json.loads(lines[0])["error"]


def test_model_check_randomized_defaults(capsys):
    """Without --trials and --seed the randomized run takes 50 trials from
    seed 0, and prints the same report as with both given."""
    code, out, _ = run_cli(capsys, "model-check", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["trials"], payload["seed"]) == (50, 0)
    assert run_cli(capsys, "model-check", "--n", "3", "--trials", "50", "--seed", "0")[1] == out


def test_model_check_missing_args(capsys):
    code, _, err = run_cli(capsys, "model-check")
    assert code == 2


def test_cup_commands(capsys):
    code, out, _ = run_cli(capsys, "cup-dim", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 45 and payload["betti_2"] == 75
    assert not payload["spans_h2"]

    code, out, _ = run_cli(capsys, "cup-rep", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 15
    assert {tuple(m["partition"]) for m in payload["multiplicities"]} == {
        (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)}


def test_branching_command(capsys):
    code, out, _ = run_cli(capsys, "branching-check", "--n", "4")
    assert code == 0
    assert json.loads(out)["status"] == "infeasible"
    code, out, _ = run_cli(capsys, "branching-check", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "feasible"
    assert payload["witness"] == [
        {"partition": [3, 1, 1, 1], "multiplicity": 1},
        {"partition": [2, 2, 2], "multiplicity": 1},
    ]


def test_whitney_command(capsys):
    code, out, _ = run_cli(capsys, "whitney", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["alternating_sum_zero"]
    assert payload["rows"][0]["dimension"] == 1
    assert payload["rows"][1]["dimension"] == 15


@pytest.mark.parametrize("n,expected", [(0, None), (1, None), (3, None),
                                        (2, True), (6, True)])
def test_whitney_claim_only_for_even_n(capsys, n, expected):
    code, out, _ = run_cli(capsys, "whitney", "--n", str(n))
    assert code == 0
    assert json.loads(out)["alternating_sum_zero"] is expected


@pytest.mark.parametrize("target,replacement,argv", [
    (cup_product, ("_signed_permutation_character", ClassFunction.trivial),
     ("cup-rep", "--n", "6")),
    (cup_product, ("_signed_permutation_character", ClassFunction.trivial),
     ("cup-rep", "--n", "12")),
    (poset_homology, ("cm_concentration_check", lambda n: False),
     ("poset-homology", "--n", "6")),
], ids=["cup-rep", "cup-rep-12", "poset-homology"])
def test_discrepancy_is_json(monkeypatch, capsys, target, replacement, argv):
    monkeypatch.setattr(target, *replacement)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert list(json.loads(err)) == ["discrepancy"]


def test_arithmetic_fault_is_not_a_discrepancy(monkeypatch, capsys):
    def divide(n):
        return 1 // 0

    monkeypatch.setattr(cup_product, "_signed_permutation_character", divide)
    with pytest.raises(ZeroDivisionError):
        cli.main(["cup-rep", "--n", "6"])


def _wrong_at(module, name, cell, bump):
    """Patch module.name so that it returns a wrong value at one argument tuple."""
    right = getattr(module, name)

    def patched(*args, **kwargs):
        value = right(*args, **kwargs)
        return bump(value) if args == cell else value

    return module, name, patched


@pytest.mark.parametrize("patch,argv,failing", [
    (_wrong_at(cohomology, "rep_via_induction", (4, 2),
               lambda v: v + SchurVector(4, {(4,): 1})),
     ("verify-cohomology", "--N", "6"), {"n": 4, "t_power": 2}),
    (_wrong_at(poset_homology, "top_interval_representation", (4,),
               lambda v: v + SchurVector(4, {(4,): 1})),
     ("verify-poset-series", "--N", "6"), {"n": 4}),
    (_wrong_at(wonderful_model, "euler_characteristic_cells", (3,), lambda v: v + 1),
     ("euler-check", "--N", "5"), {"n": 3}),
    (_wrong_at(cohomology, "betti", (6, 2), lambda v: v + 1),
     ("rep-table", "--n", "6"), {"n": 6, "i": 2}),
], ids=["verify-cohomology", "verify-poset-series", "euler-check", "rep-table"])
def test_first_failing_cell_reported(monkeypatch, capsys, patch, argv, failing):
    monkeypatch.setattr(*patch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "Traceback" not in out + err
    report = json.loads(out or err)
    named = report.get("first_failing", {k: report.get(k) for k in failing})
    assert named == failing


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_rep_table_mismatch_is_a_discrepancy(monkeypatch, capsys, fmt):
    monkeypatch.setattr(*_wrong_at(cohomology, "betti", (6, 2), lambda v: v + 1))
    code, out, err = run_cli(capsys, "rep-table", "--n", "6", "--format", fmt)
    assert code == 1 and out == ""
    assert json.loads(err) == {"discrepancy": "dimension mismatch", "n": 6, "i": 2}
