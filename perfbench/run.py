"""coxtoric benchmark: cold-process operations, checked by an independent oracle.

    python3 perfbench/run.py --workload poset-route --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Every operation is a fresh interpreter
(perfbench/op.py), so each pays import and lru_cache warm-up cold, as a CLI
user does. One client runs a closed loop: the next operation starts when the
previous one has been reaped. Each is timed from spawn to reap, with CPU time
and peak RSS from os.wait4, and its stdout is checked by oracle.py; a wrong
answer, an unexpected exit status, a traceback or a timeout fails it, and a
failed operation contributes no timing.

--trace 0 prints the end-to-end metrics. --trace 1 is the separate traced
run: a README sweep (all twelve README commands run twice plain and once
traced, outputs byte-identical), then whole cycles of the workload's
operations, each run plain and traced, with per-layer metrics from
tracer.py reported as the median over cycles. --workload all runs every
workload in turn.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give each metric with its unit and
sample count, the environment, and the first failing operation, if any.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
# An operation is killed after OP_TIMEOUT_S, and every operation still
# running RUN_LIMIT_S after the run began, so a hanging program cannot keep a
# run going much longer than that.
OP_TIMEOUT_S = 10
RUN_LIMIT_S = 150
# setup_s is the median of this many cold starts in one run.
SETUP_SAMPLES = 15


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    trace: dict | None


def spawn(spec: dict, deadline: float, trace: bool = False) -> OpResult:
    """Run one operation in a fresh interpreter and reap it with its rusage.
    The child is killed at the perf_counter time deadline, or after
    OP_TIMEOUT_S, whichever comes first."""
    spec_path, out_path, err_path = WORK / "spec.json", WORK / "stdout", WORK / "stderr"
    trace_path = WORK / "trace.json"
    if trace:
        spec = dict(spec, trace=str(trace_path))
        trace_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    argv = [sys.executable, str(BENCH / "op.py"), str(spec_path)]
    start = time.perf_counter()
    timeout = max(0.0, min(OP_TIMEOUT_S, deadline - start))
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    summary = None
    if trace and trace_path.exists():
        try:
            summary = json.loads(trace_path.read_text())
        except json.JSONDecodeError:
            pass  # the child died while writing; its verdict reports why
    return OpResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                    os.waitstatus_to_exitcode(status), not ready,
                    out_path.read_bytes(), err_path.read_bytes(), summary)


def verdict(spec: dict, res: OpResult) -> str | None:
    """None for a verified operation, else the reason it failed."""
    if res.timed_out:
        return "timed out"
    if b"Traceback (most recent call last)" in res.stderr:
        return "traceback: " + res.stderr.decode(errors="replace").strip().splitlines()[-1]
    if res.exit_code != 0:
        return f"exit status {res.exit_code}"
    try:
        text = res.stdout.decode()
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    return oracle.check(text, spec)


class Tally:
    """Attempted and failed operations of one run, the first failure's
    description, and the deadline by which every operation of the current
    workload must end."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, label: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"op {self.attempted} ({label}): {reason}"
        return reason is None


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics {name: (value, unit, samples)} of a closed loop."""
    make_op = workloads.WORKLOADS[workload]
    setup = []
    for _ in range(SETUP_SAMPLES):
        res = spawn({"kind": "setup"}, tally.deadline)
        if tally.record("setup", verdict({"kind": "setup"}, res)):
            setup.append(res.wall_s)

    walls, cpus, rss = [], [], []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        label, spec = make_op(seed, k)
        k += 1
        res = spawn(spec, tally.deadline)
        rss.append(res.rss_kb)
        if tally.record(label, verdict(spec, res)):
            walls.append(res.wall_s)
            cpus.append(res.cpu_s)
    elapsed = time.perf_counter() - start
    ok = len(walls)
    return {
        "ops_per_s": (ok / elapsed, "1/s", ok),
        "op_s.p50": (percentile(walls, 50), "s", ok),
        "op_s.p90": (percentile(walls, 90), "s", ok),
        "op_cpu_s.p50": (percentile(cpus, 50), "s", ok),
        "peak_rss_mb": (max(rss) / 1024 if rss else 0.0, "MB", len(rss)),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s", len(setup)),
        "ops_verified_ratio": (ok / k if k else 0.0, "ratio", k),
    }


def readme_sweep(tally: Tally) -> dict:
    """Every README command twice plain and once traced: each must verify and
    all three stdouts must be byte-identical. Returns the cli metrics."""
    point = WORK / "readme-point.json"
    point.write_text(json.dumps(workloads.README_POINT))
    metrics = {}
    bytes_out = 0
    summaries = []
    for name, argv in workloads.README_COMMANDS:
        spec = {"kind": "cli", "argv": [a.replace("{point}", str(point)) for a in argv]}
        label = " ".join(spec["argv"])
        first, second = spawn(spec, tally.deadline), spawn(spec, tally.deadline)
        traced = spawn(spec, tally.deadline, trace=True)
        tally.record(label, verdict(spec, first))
        tally.record(label, verdict(spec, second) or (
            "output differs between two runs" if second.stdout != first.stdout else None))
        tally.record(label + " traced", verdict(spec, traced) or (
            "tracing changed the output" if traced.stdout != first.stdout else None))
        metrics[f"cli.readme.{name}.s"] = (first.wall_s, "s", 1)
        bytes_out += len(first.stdout)
        summaries.append(traced.trace or {})
    metrics["cli.bytes_out"] = (bytes_out, "bytes", len(workloads.README_COMMANDS))
    for name, (value, unit) in tracer.cli_metrics(tracer.merge(summaries)).items():
        metrics[name] = (value, unit, len(summaries))
    return metrics


def trace_run(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics {name: (value, unit, samples)}: the README sweep, then
    whole cycles of plain and traced twins until the time is used up."""
    start = time.perf_counter()
    metrics = readme_sweep(tally)
    make_op = workloads.WORKLOADS[workload]
    cycles = []
    plain_s = traced_s = 0.0
    k = 0
    while not cycles or time.perf_counter() - start < seconds:
        summaries = []
        for _ in range(workloads.CYCLE[workload]):
            label, spec = make_op(seed, k)
            k += 1
            plain = spawn(spec, tally.deadline)
            traced = spawn(spec, tally.deadline, trace=True)
            plain_ok = tally.record(label, verdict(spec, plain))
            traced_ok = tally.record(label + " traced", verdict(spec, traced) or (
                "tracing changed the output" if traced.stdout != plain.stdout else None))
            if plain_ok and traced_ok:
                plain_s += plain.wall_s
                traced_s += traced.wall_s
            summaries.append(traced.trace or {})
        cycles.append(tracer.layer_metrics(tracer.merge(summaries)))
    for name, (_, unit) in cycles[0].items():
        metrics[name] = (statistics.median(c[name][0] for c in cycles), unit, len(cycles))
    metrics["trace.overhead_ratio"] = (
        traced_s / plain_s if plain_s else 0.0, "ratio", k)
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int, load_start) -> dict:
    nproc = len(os.sched_getaffinity(0))
    load_end = os.getloadavg()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in load_end],
        "git_commit": git_commit(),
        "seed": seed,
        # A run on a machine busier than its processor count is kept, but flagged.
        "suspect": max(load_start[0], load_end[0]) > nproc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxtoric" / "__init__.py").is_file():
        sys.stderr.write(f"coxtoric sources not found under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    # Untimed warm-up: the first import writes the bytecode caches of the
    # package and brings its files into the page cache.
    spawn({"kind": "setup"}, time.perf_counter() + OP_TIMEOUT_S)

    load_start = os.getloadavg()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    collect = trace_run if args.trace else measure
    tally = Tally()
    results = {}
    for name in names:
        tally.deadline = time.perf_counter() + RUN_LIMIT_S
        metrics = collect(name, args.seed, args.seconds, tally)
        for metric, (value, unit, samples) in metrics.items():
            print(f"{name:<15} {metric:<52} {value:>14.6g} {unit:<6} n={samples}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            results[key] = {"value": value, "unit": unit}
    print("env " + json.dumps(environment(args.seed, load_start)))
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
