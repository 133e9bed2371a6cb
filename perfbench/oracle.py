"""Correctness checks for benchmark operations, independent of the program.

Nothing here calls coxtoric: the expected values come from the benchmark's
own secant table, binomials, hook-length dimensions and the known structure
of the inputs it generated. Every check takes the operation's stdout text
(and the operation spec) and returns None when the output is right, or a
short reason naming the first mismatch.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb, factorial

# Secant numbers A_0, A_2, ..., A_14 (the x^{2k}/(2k)! coefficients of sec x).
SECANT = (1, 1, 5, 61, 1385, 50521, 2702765, 199360981)

# Branching status by n. n = 5 is feasible (Res(V_(3,1,1,1) + V_(2,2,2))
# equals the cup span), so it must never be asserted infeasible.
BRANCHING_STATUS = {4: "infeasible", 5: "feasible", 14: "infeasible"}


def betti(n: int, i: int) -> int:
    return SECANT[i] * comb(n, 2 * i) if 2 * i <= n else 0


def hook_dimension(lam) -> int:
    """Dimension of the irreducible S_n module for lam, by hook lengths."""
    lam = list(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def module_dimension(multiplicities) -> int | str:
    """Dimension of sum m_lam V_lam from [(partition, multiplicity), ...]; a
    reason string when some multiplicity is not a positive integer."""
    total = 0
    for lam, mult in multiplicities:
        if not isinstance(mult, int) or mult <= 0:
            return f"multiplicity {mult!r} of {lam} is not a positive integer"
        total += mult * hook_dimension(lam)
    return total


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _pairs(rows):
    return [(entry["partition"], entry["multiplicity"]) for entry in rows]


def _check_dimension(label, multiplicities, expected):
    dim = module_dimension(multiplicities)
    if dim != expected:
        return f"{label}: dimension {dim}, expected {expected}"
    return None


# --- CLI commands -----------------------------------------------------------

def check_verified(data, argv):
    if data.get("verified") is not True:
        return f"{argv[0]} not verified: {data}"
    return None


def check_poset_homology(data, argv):
    n = int(argv[argv.index("--n") + 1])
    top = SECANT[n // 2]
    if data.get("ranks") != {str(n // 2): top} or data.get("concentrated") is not True:
        return f"poset-homology --n {n}: ranks {data.get('ranks')}, expected {{{n // 2}: {top}}}"
    identity = ",".join(["1"] * n)
    if data["character"].get(identity) != top:
        return f"poset-homology --n {n}: character at the identity is not {top}"
    return None


def check_whitney(data, argv):
    n = int(argv[argv.index("--n") + 1])
    rows = data.get("rows", [])
    if [r["i"] for r in rows] != list(range(n // 2 + 1)):
        return f"whitney --n {n}: degrees {[r['i'] for r in rows]}"
    for r in rows:
        expected = betti(n, r["i"])
        if r["dimension"] != expected:
            return f"whitney --n {n} i={r['i']}: dimension {r['dimension']}, expected {expected}"
        reason = _check_dimension(f"whitney --n {n} i={r['i']}",
                                  _pairs(r["multiplicities"]), expected)
        if reason:
            return reason
    if data.get("alternating_sum_zero") is not True:
        return f"whitney --n {n}: alternating sum is not zero"
    return None


def check_rep_table(data, argv):
    n = int(argv[argv.index("--n") + 1])
    rows = data.get("rows", [])
    if [r["i"] for r in rows] != list(range(n // 2 + 1)):
        return f"rep-table --n {n}: degrees {[r['i'] for r in rows]}"
    for r in rows:
        expected = betti(n, r["i"])
        if r["betti"] != expected:
            return f"rep-table --n {n} i={r['i']}: betti {r['betti']}, expected {expected}"
        reason = _check_dimension(f"rep-table --n {n} i={r['i']}",
                                  _pairs(r["multiplicities"]), expected)
        if reason:
            return reason
    return None


def check_betti_table(data, argv):
    n = int(argv[argv.index("--n") + 1])
    got = [(r["n"], r["i"], r["betti"]) for r in data.get("rows", [])]
    expected = [(n, i, betti(n, i)) for i in range(n // 2 + 1)]
    if got != expected:
        return f"betti-table --n {n}: rows {got}, expected {expected}"
    return None


def check_rep_table_csv(stdout, argv):
    n = int(argv[argv.index("--n") + 1])
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if [int(r["i"]) for r in rows] != list(range(n // 2 + 1)):
        return f"rep-table csv --n {n}: degrees {[r['i'] for r in rows]}"
    for r in rows:
        i = int(r["i"])
        pairs = []
        for cell in r["rep"].split(";"):
            lam, mult = cell.split(":")
            pairs.append(([int(p) for p in lam.strip("[]").split(",")], int(mult)))
        if int(r["betti"]) != betti(n, i):
            return f"rep-table csv --n {n} i={i}: betti {r['betti']}"
        reason = _check_dimension(f"rep-table csv --n {n} i={i}", pairs, betti(n, i))
        if reason:
            return reason
    return None


def check_euler(data, argv):
    N = int(argv[argv.index("--N") + 1])
    if data.get("verified") is not True or len(data.get("rows", [])) != N:
        return f"euler-check --N {N}: not verified over {N} rows"
    return None


def check_cup_dim(data, argv):
    n = int(argv[argv.index("--n") + 1])
    want = {"dimension": 3 * comb(n, 4), "betti_2": betti(n, 2), "spans_h2": False}
    got = {key: data.get(key) for key in want}
    if got != want:
        return f"cup-dim --n {n}: {got}, expected {want}"
    return None


def check_cup_rep(data, argv):
    n = int(argv[argv.index("--n") + 1])
    if data.get("dimension") != 3 * comb(n, 4):
        return f"cup-rep --n {n}: dimension {data.get('dimension')}"
    return _check_dimension(f"cup-rep --n {n}", _pairs(data["multiplicities"]),
                            3 * comb(n, 4))


def check_branching(data, argv):
    n = int(argv[argv.index("--n") + 1])
    if data.get("status") != BRANCHING_STATUS[n]:
        return f"branching-check --n {n}: {data.get('status')}, expected {BRANCHING_STATUS[n]}"
    return None


def check_model_report(data, argv):
    if data.get("ok") is not True or data.get("failures") != []:
        return f"model-check: equivariance failures {data.get('failures')}"
    return None


def check_model_point(data, argv):
    # The README point: coordinates of [1,2,3] vanish on {1,2}, those of
    # {1,2} vanish nowhere, so the orbit chain is [1,2,3] > [1,2] > [].
    if data.get("on_model") is not True or data.get("degeneration_ok") is not True:
        return "model-check --point: not on the model or degeneration failed"
    if data.get("orbit") != [[1, 2, 3], [1, 2], []]:
        return f"model-check --point: orbit {data.get('orbit')}"
    return None


CLI_CHECKS = {
    "verify-cohomology": check_verified,
    "verify-poset-series": check_verified,
    "poset-homology": check_poset_homology,
    "whitney": check_whitney,
    "rep-table": check_rep_table,
    "betti-table": check_betti_table,
    "euler-check": check_euler,
    "cup-dim": check_cup_dim,
    "cup-rep": check_cup_rep,
    "branching-check": check_branching,
}


def check_cli(stdout: str, spec: dict):
    argv = spec["argv"]
    command = argv[0]
    if command == "rep-table" and "csv" in argv:
        return check_rep_table_csv(stdout, argv)
    data = _json(stdout)
    if not isinstance(data, dict) or data.get("command") != command:
        return f"{command}: stdout is not the command's JSON"
    if command == "model-check":
        check = check_model_point if "--point" in argv else check_model_report
    else:
        check = CLI_CHECKS[command]
    return check(data, argv)


# --- formula-route ----------------------------------------------------------

def check_induction(stdout: str, spec: dict):
    data = _json(stdout)
    n = spec["n"]
    if data is None or [row["i"] for row in data] != list(range(n // 2 + 1)):
        return f"rep_via_induction({n}, i): degrees missing"
    for row in data:
        reason = _check_dimension(f"rep_via_induction({n}, {row['i']})",
                                  row["multiplicities"], betti(n, row["i"]))
        if reason:
            return reason
    return None


def check_cup_span(stdout: str, spec: dict):
    data = _json(stdout)
    n = spec["n"]
    if data is None:
        return f"cup_span_representation({n}): no output"
    return _check_dimension(f"cup_span_representation({n})", data, 3 * comb(n, 4))


def check_branching_status(stdout: str, spec: dict):
    data = _json(stdout)
    n = spec["n"]
    if data is None or data.get("status") != BRANCHING_STATUS[n]:
        got = data.get("status") if data else None
        return f"branching_infeasibility({n}): {got}, expected {BRANCHING_STATUS[n]}"
    return None


# --- model-geometry ---------------------------------------------------------

def check_model(stdout: str, spec: dict):
    data = _json(stdout)
    if data is None:
        return "model op: no output"
    report = data["equivariance"]
    if report != {"n": spec["n"], "trials": spec["trials"], "seed": spec["seed"],
                  "failures": [], "ok": True}:
        return f"equivariance_report seed {spec['seed']}: {report}"
    if len(data["points"]) != len(spec["points"]):
        return "model op: points missing"
    for k, (point, got) in enumerate(zip(spec["points"], data["points"])):
        # Each point is a torus translate of the canonical point of the chain
        # it was built from, so it lies on the model in exactly that orbit.
        if got != {"on_model": True, "orbit": point["chain"], "degeneration_ok": True}:
            return f"point {k} of chain {point['chain']}: {got}"
    closure = data["closure"]
    want = {"fine": spec["fine"], "coarse": spec["coarse"], "sample_on_model": True,
            "sample_in_coarse_orbit": True, "limit_matches": True, "ok": True}
    if closure != want:
        return f"closure_curve_witness {spec['fine']} -> {spec['coarse']}: {closure}"
    return None


def check_setup(stdout: str, spec: dict):
    return None if stdout == "" else "setup printed output"


CHECKS = {
    "cli": check_cli,
    "induction": check_induction,
    "cup_span": check_cup_span,
    "branching": check_branching_status,
    "model": check_model,
    "setup": check_setup,
}


def check(stdout: str, spec: dict):
    """None when the stdout of the operation described by spec is right."""
    try:
        return CHECKS[spec["kind"]](stdout, spec)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"{spec['kind']}: malformed output ({type(exc).__name__}: {exc})"
