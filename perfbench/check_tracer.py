"""Tests of the benchmark's own tracer and oracle.

    python3 -m pytest perfbench/check_tracer.py

The file name keeps these out of the repository's default test collection:
the byte-identity test spawns one cycle of every workload (about 15 s).
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),     # overlaps a: [1, 6] is covered once
        ("c", 8.0, 12.0, 0),    # runs past the parent: only [8, 10] counts
        ("a.child", 1.5, 2.0, 1),
        ("other", 20.0, 21.0, -1),
    ]
    assert tracer.self_times(spans) == [3.0, 2.5, 3.0, 4.0, 0.5, 1.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_wrapper_self_time_and_counter_exclusion():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def count(t, args, kwargs, result):
        clock.advance(5.0)  # counter cost must not land in any layer's self time
        t.counts["inner.items"] += result

    inner = tr.wrap(lambda x: clock.advance(3.0) or x, "linalg.inner", count)

    def outer_body():
        clock.advance(2.0)
        inner(7)
        clock.advance(1.0)

    tr.wrap(outer_body, "rep_ring.outer")()
    summary = tr.summary()
    assert summary["self_s"] == {"rep_ring.outer": 3.0, "linalg.inner": 3.0}
    assert summary["calls"] == {"rep_ring.outer": 1, "linalg.inner": 1}
    assert summary["counts"] == {"inner.items": 7}


def test_errors_are_counted_per_layer_and_reraised():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("bad input")

    wrapped = tr.wrap(boom, "cli.main")
    try:
        wrapped()
    except ValueError:
        pass
    else:
        raise AssertionError("the wrapper swallowed the exception")
    assert tr.summary()["errors"] == {"cli": 1}


def test_install_reaches_imported_names_and_uninstall_restores():
    import coxtoric
    from coxtoric import cli, linalg, poset_homology, rep_ring

    before = (linalg.sparse_rank, poset_homology.sparse_rank, coxtoric.pieri_h,
              rep_ring.RepSeries.__dict__["invert"], dict(cli.HANDLERS))
    tr = tracer.Tracer()
    tr.install()
    try:
        assert poset_homology.sparse_rank.__wrapped__ is before[0]
        assert linalg.sparse_rank is poset_homology.sparse_rank
        assert coxtoric.pieri_h.__wrapped__ is before[2]
        assert rep_ring.RepSeries.__dict__["invert"].__wrapped__ is before[3]
        assert all(h.__wrapped__ is before[4][c] for c, h in cli.HANDLERS.items())
    finally:
        tr.uninstall()
    after = (linalg.sparse_rank, poset_homology.sparse_rank, coxtoric.pieri_h,
             rep_ring.RepSeries.__dict__["invert"], dict(cli.HANDLERS))
    assert after == before


def test_wrapped_outputs_are_byte_identical_on_every_workload():
    run.WORK.mkdir(parents=True, exist_ok=True)
    for name, make_op in workloads.WORKLOADS.items():
        for k in range(workloads.CYCLE[name]):
            label, spec = make_op(0, k)
            deadline = time.perf_counter() + run.OP_TIMEOUT_S
            plain = run.spawn(spec, deadline)
            traced = run.spawn(spec, deadline, trace=True)
            assert run.verdict(spec, plain) is None, label
            assert run.verdict(spec, traced) is None, label
            assert traced.stdout == plain.stdout, label
            assert traced.trace and traced.trace["calls"], label


def test_operation_past_its_deadline_is_killed_and_fails():
    run.WORK.mkdir(parents=True, exist_ok=True)
    _, spec = workloads.model_geometry(0, 0)
    res = run.spawn(spec, time.perf_counter() + 0.05)
    assert res.timed_out and run.verdict(spec, res) == "timed out"


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = set(tracer.layer_metrics(tracer.merge([])))
    layer |= set(tracer.cli_metrics(tracer.merge([])))
    layer |= {f"cli.readme.{name}.s" for name, _ in workloads.README_COMMANDS}
    layer |= {"cli.bytes_out", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tally = run.Tally()
    measured = run.measure("formula-route", 0, 0.1, tally)
    assert tally.failed == 0
    assert {m["name"] for m in spec["end_to_end"]} == set(measured)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit, _) in measured.items())


def test_secant_table_matches_the_boustrophedon_recurrence():
    rows = [[1]]
    for n in range(1, 15):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + rows[-1][n - k])
        rows.append(row)
    assert oracle.SECANT == tuple(rows[2 * k][2 * k] for k in range(8))


def test_hook_dimensions_square_sum_to_group_order():
    def partitions(n, largest):
        if n == 0:
            yield ()
        for first in range(min(n, largest), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    assert oracle.hook_dimension((2, 2, 1, 1)) == 9
    assert sum(oracle.hook_dimension(lam) ** 2 for lam in partitions(7, 7)) == 5040


def test_oracle_rejects_wrong_answers():
    assert oracle.BRANCHING_STATUS[5] == "feasible"
    feasible = json.dumps({"status": "feasible", "witness": []})
    assert oracle.check(feasible, {"kind": "branching", "n": 14}) is not None
    unverified = json.dumps({"command": "verify-cohomology", "verified": False})
    assert oracle.check(unverified, {"kind": "cli", "argv": ["verify-cohomology"]})
    short = json.dumps([[[14], 1]])
    assert oracle.check(short, {"kind": "cup_span", "n": 14}) is not None
    assert oracle.check("not json", {"kind": "model"}) is not None
