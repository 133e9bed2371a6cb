"""src/coxtoric holds what the commands run: every def there runs on some
command path, or ALLOWED names it with the reason it stays.

A fresh interpreter installs sys.settrace before it imports coxtoric.cli, so
calls made at import time (the Command decorators) count. The trace function
records the code object of every Python call and returns None, so no line is
traced. Under it the interpreter runs RUNS: one argv per registered command,
the README's command lines with its example point, the poset route at
interval size 8, every --format, and one bad argv for each kind of exit-2
error. It also runs the README API sketch and cli.run with a patched
sys.argv. A def is matched to its code object by file, first line and name;
the first line of a decorated def is that of its first decorator.

The gate fails when a def never ran and is not in ALLOWED (a nested def is
excused with its parent), and when a def in ALLOWED did run, so the table
cannot go stale. The second case keeps schur_multiply, h_expansion and the
RepSeries product and inverse off every command path.

Run as a script, this file is that interpreter: in the current directory it
writes the point files RUNS reads, then prints the reached defs and each
run's exit status and output as JSON.
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxtoric"
README = ROOT / "README.md"

SPANS = "perfbench/tracer.py names it in SPANS"
OP = "perfbench/op.py calls it"
ALLOWED = {
    "linalg.sparse_rank": SPANS,
    "linalg._add_multiple": "a step of sparse_rank",
    "linalg._reduce_content": "a step of sparse_rank",
    "poset_homology.IntervalComplex.boundary_columns": SPANS,
    "rep_ring.schur_multiply": SPANS,
    "rep_ring.h_expansion": "schur_multiply calls it",
    "rep_ring.pieri_e": SPANS + "; schur_multiply's column case calls it",
    "rep_ring.SchurVector.scale": "schur_multiply is its one caller",
    "rep_ring.RepSeries.__mul__": SPANS,
    "rep_ring.RepSeries.invert": SPANS,
    "combinatorics.enumerate_chains": SPANS,
    "combinatorics.all_chains": "in coxtoric.__all__",
    "combinatorics.validate_chain": OP + ", through closure_curve_witness",
    "wonderful_model.closure_curve_witness": OP,
    "wonderful_model.closure_refinement": OP + ", through closure_curve_witness",
    "wonderful_model.representative_point": OP + ", through closure_curve_witness",
    "wonderful_model.ModelPoint.to_json": "the CI point-file step writes a point with it",
    "wonderful_model.ModelPoint.__eq__": "Python protocol",
    "rep_ring.SchurVector.__repr__": "Python protocol",
    "rep_ring.ClassFunction.__repr__": "Python protocol",
    "__init__.__dir__": "Python protocol",
}

# The point the README shows; it is on the model. OFF_MODEL bends [1, 3].
POINT = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
OFF_MODEL = POINT.replace('{"subset": [1, 3], "coords": ["0", "1"]}',
                          '{"subset": [1, 3], "coords": ["1", "1"]}')
NESTED = "[" * 100000 + "]" * 100000
POINT_FILES = {
    "point.json": POINT,
    "off.json": OFF_MODEL,
    "broken.json": "{not json",
    "shape.json": '{"n": 3, "components": 5}',
    "big.json": '{"n": 8, "components": []}',
    "nested.json": NESTED,
}

# One argv per registered command, each at a small size.
PER_COMMAND = {
    "betti-table": "--n 4",
    "rep-table": "--n 6 --route poset",
    "verify-cohomology": "--N 6",
    "verify-poset-series": "--N 6",
    "poset-homology": "--n 4",
    "euler-check": "--N 5",
    "model-check": "--n 5 --seed 3 --trials 20",
    "cup-dim": "--n 5",
    "cup-rep": "--n 30",
    "branching-check": "--n 5",
    "whitney": "--n 5",
}
README_LINES = [line.split("  #")[0].split()[1:] for line in README.read_text().splitlines()
                if line.startswith("coxtoric ")]
# The five README poset commands at interval size 8.
POSET_ROUTE = ("verify-cohomology --N 8", "verify-poset-series --N 8", "poset-homology --n 8",
               "whitney --n 8", "rep-table --n 8 --route poset")
# The series identity at the brute-force ceiling runs after the trace is removed.
UNTRACED = ("verify-poset-series --N 10",)
# cli.run, the installed script's entry point, reads sys.argv.
RUN_ARGV = ["betti-table", "--n", "2"]

# (argv, stdin, expected exit status)
RUNS = (
    [(f"{name} {flags}".split(), None, 0) for name, flags in PER_COMMAND.items()]
    + [(argv, None, 0) for argv in README_LINES]
    + [(row.split(), None, 0) for row in POSET_ROUTE]
    + [(["betti-table", "--n", "4", "--format", fmt], None, 0) for fmt in ("csv", "plain")]
    + [(["verify-cohomology", "--N", "4", "--format", "plain"], None, 0),
       (["betti-table", "--n", "4", "--out", "table.json"], None, 0),
       (["whitney", "--describe"], None, 0),
       (["whitney", "--help"], None, 0),
       (["model-check", "--point", "-"], POINT, 0),
       (["model-check", "--point", "off.json"], None, 1)]
    + [(argv.split(), stdin, 2) for argv, stdin in (
        ("", None),                                            # no command
        ("no-such-command", None),
        ("betti-table --bogus 1", None),                       # unknown flag
        ("betti-table --n abc", None),                         # not an int
        ("verify-cohomology --format csv", None),              # format not offered
        ("betti-table", None),                                 # required flag missing
        ("betti-table --n 20", None),                          # above a fixed ceiling
        ("betti-table --n 6 --i 5", None),                     # above a ceiling read from --n
        ("model-check --n 3 --trials 0", None),                # below a floor
        ("whitney --n 12", None),                              # interval beyond the ceiling
        ("model-check", None),                                 # neither --point nor --n
        ("model-check --point point.json --n 3", None),        # both
        ("model-check --point missing.json", None),            # no such file
        ("model-check --point broken.json", None),             # not JSON
        ("model-check --point shape.json", None),              # not a point
        ("model-check --point big.json", None),                # n above the ceiling
        ("model-check --point nested.json", None),             # nested past the recursion limit
        ("model-check --point -", NESTED),
    )]
)


def _run(call, argv, stdin=None) -> dict:
    """call() with stdin given and stdout and stderr captured. A SystemExit
    gives the exit status; any other exception gives its name, with its
    traceback on the captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call()
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # reported, so the gate still reads what ran
        code = type(exc).__name__
        err.write(traceback.format_exc())
    finally:
        sys.stdin = saved
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def traced_commands() -> dict:
    """Run everything the gate traces, in this interpreter."""
    for name, text in POINT_FILES.items():
        Path(name).write_text(text)
    reached = set()

    def trace(frame, event, arg):
        reached.add(frame.f_code)

    sys.settrace(trace)
    from coxtoric import cli
    runs = [_run(lambda: cli.main(argv), argv, stdin) for argv, stdin, _ in RUNS]
    sketch = README.read_text().split("## API sketch", 1)[1]
    exec(re.search(r"```python\n(.*?)```", sketch, re.S).group(1), {})
    saved, sys.argv = sys.argv, ["coxtoric", *RUN_ARGV]
    runs.append(_run(cli.run, RUN_ARGV))
    sys.argv = saved
    sys.settrace(None)
    runs += [_run(lambda: cli.main(row.split()), row.split()) for row in UNTRACED]
    return {"package": os.path.dirname(cli.__file__),
            "reached": sorted({(code.co_filename, code.co_firstlineno, code.co_name)
                               for code in reached}),
            "runs": runs}


def _defs():
    """{module.qualname: (file, first line, name, parent qualname or None)}
    for every def under src/coxtoric; a nested def is named through its
    parent, as parent.child."""
    out = {}

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[qualname] = (str(path), first, child.name, parent)
                visit(child, path, qualname + ".", qualname)
            else:
                visit(child, path, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix, parent)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".", None)
    return out


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, __file__], cwd=tmp_path_factory.mktemp("traced"),
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert Path(report["package"]) == PACKAGE
    return report


def test_traced_runs_keep_the_exit_contract(report):
    """Each run exits as RUNS expects (then cli.run, then the untraced rows,
    all 0); an exit 2 leaves stdout empty and writes one JSON error."""
    assert len(README_LINES) == 12
    expected = [code for _, _, code in RUNS] + [0] * (1 + len(UNTRACED))
    for run, code in zip(report["runs"], expected, strict=True):
        assert run["code"] == code, run
        assert "Traceback" not in run["err"], run
        if code == 2:
            lines = run["err"].splitlines()
            assert run["out"] == "" and len(lines) == 1 and "error" in json.loads(lines[0]), run
        else:
            assert run["out"] or "--out" in run["argv"], run


def test_every_def_runs_on_a_command_path(report):
    defs = _defs()
    assert ALLOWED.keys() <= defs.keys(), sorted(ALLOWED.keys() - defs.keys())
    reached = {tuple(entry) for entry in report["reached"]}
    ran = {name for name, (path, first, short, _) in defs.items()
           if (path, first, short) in reached}

    def excused(name):
        return name in ALLOWED or defs[name][3] is not None and excused(defs[name][3])

    never_ran = sorted(name for name in defs if name not in ran and not excused(name))
    allowed_but_ran = sorted(name for name in ALLOWED if name in ran)
    assert never_ran == [], f"defs no command reaches: {never_ran}"
    assert allowed_but_ran == [], f"ALLOWED defs a command reaches: {allowed_but_ran}"


if __name__ == "__main__":
    json.dump(traced_commands(), sys.stdout)
