"""One benchmark operation in a fresh interpreter: python3 op.py SPEC.json

The spec names the operation kind and its inputs. "cli" runs coxtoric's
cli.main(argv) and exits with its status; the other kinds call the library
and print a JSON summary for the oracle. With "trace" in the spec, the
per-layer tracer is installed first and its summary is written to that path.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _multiplicities(vec):
    return [[list(lam), int(c) if c.denominator == 1 else str(c)] for lam, c in vec.items()]


def _chain(data):
    return tuple(frozenset(block) for block in data)


def run_cli(spec):
    from coxtoric import cli
    return cli.main(spec["argv"])


def run_setup(spec):
    from coxtoric import cli
    cli.build_parser()
    return 0


def run_induction(spec):
    from coxtoric import cohomology
    n = spec["n"]
    rows = [{"i": i, "multiplicities": _multiplicities(cohomology.rep_via_induction(n, i))}
            for i in range(n // 2 + 1)]
    print(json.dumps(rows))
    return 0


def run_cup_span(spec):
    from coxtoric import cup_product
    rep = cup_product.cup_span_representation(spec["n"], cross_check=True)
    print(json.dumps(_multiplicities(rep)))
    return 0


def run_branching(spec):
    from coxtoric import cup_product
    cert = cup_product.branching_infeasibility(spec["n"])
    print(json.dumps({"status": cert["status"], "witness": cert["witness"]}))
    return 0


def run_model(spec):
    from coxtoric import wonderful_model as wm
    report = wm.equivariance_report(spec["n"], spec["trials"], spec["seed"])
    points = []
    for entry in spec["points"]:
        p = wm.ModelPoint.from_json(entry["point"])
        on_model = wm.is_on_model(p)
        points.append({
            "on_model": on_model,
            "orbit": [sorted(b) for b in wm.orbit_of(p)] if on_model else None,
            "degeneration_ok": wm.degeneration_witness(p)["ok"] if on_model else None,
        })
    witness = wm.closure_curve_witness(_chain(spec["fine"]), _chain(spec["coarse"]))
    closure = {key: witness[key] for key in (
        "fine", "coarse", "sample_on_model", "sample_in_coarse_orbit",
        "limit_matches", "ok")}
    print(json.dumps({"equivariance": report, "points": points, "closure": closure}))
    return 0


RUNNERS = {
    "cli": run_cli,
    "setup": run_setup,
    "induction": run_induction,
    "cup_span": run_cup_span,
    "branching": run_branching,
    "model": run_model,
}


def main(path):
    with open(path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    status = RUNNERS[spec["kind"]](spec)
    if tracer is not None:
        tracer.uninstall()
        with open(spec["trace"], "w") as fh:
            json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
