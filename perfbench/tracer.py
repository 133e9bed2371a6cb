"""Per-layer tracing of coxtoric, installed from outside the package.

A layer is one module of the package. The tracer replaces each entry point
listed in SPANS by a wrapper that records a span (name, start, end, parent)
and, where a counter is registered, the size of the work done. The wrapper
is written into every coxtoric module namespace that holds the original
object, so calls made through `from .linalg import sparse_rank` style
imports are traced too; methods are patched on their class. Nothing under
src/ is changed, and uninstall() puts every original back.

Self time of a span is its duration minus the part of its interval that its
child spans cover. Counter code runs inside its own "trace.count" span, so
its cost is excluded from the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb

LAYERS = ("combinatorics", "linalg", "poset_homology", "rep_ring",
          "cohomology", "cup_product", "wonderful_model", "cli")

# (module, attribute or Class.method, span name). Only these entry points are
# wrapped: wrapping helpers such as first_violation or check_partition would
# move the time of is_on_model and of every SchurVector construction into
# spans that no layer metric reports.
SPANS = (
    ("linalg", "sparse_rank", "linalg.sparse_rank"),
    ("poset_homology", "build_interval_complex", "poset_homology.build_interval_complex"),
    ("poset_homology", "IntervalComplex.boundary_columns", "poset_homology.boundary_columns"),
    ("poset_homology", "homology_ranks", "poset_homology.homology_ranks"),
    ("poset_homology", "equivariant_top_character",
     "poset_homology.equivariant_top_character"),
    ("rep_ring", "pieri_h", "rep_ring.pieri_h"),
    ("rep_ring", "pieri_e", "rep_ring.pieri_e"),
    ("rep_ring", "decompose", "rep_ring.decompose"),
    ("rep_ring", "character_table", "rep_ring.character_table"),
    ("rep_ring", "schur_multiply", "rep_ring.schur_multiply"),
    ("rep_ring", "RepSeries.invert", "rep_ring.series_invert"),
    ("rep_ring", "RepSeries.__mul__", "rep_ring.series_mul"),
    ("cohomology", "rep_via_induction", "cohomology.rep_via_induction"),
    ("cohomology", "cohomology_series_poset", "cohomology.cohomology_series_poset"),
    ("cohomology", "cohomology_series_formula", "cohomology.cohomology_series_formula"),
    ("cup_product", "cup_span_representation", "cup_product.cup_span_representation"),
    ("cup_product", "branching_certificate", "cup_product.branching_certificate"),
    ("wonderful_model", "is_on_model", "wonderful_model.is_on_model"),
    ("wonderful_model", "orbit_of", "wonderful_model.orbit_of"),
    ("wonderful_model", "degeneration_witness", "wonderful_model.degeneration_witness"),
    ("wonderful_model", "closure_curve_witness", "wonderful_model.closure_curve_witness"),
    ("wonderful_model", "representative_point", "wonderful_model.representative_point"),
    ("wonderful_model", "torus_act", "wonderful_model.torus_act"),
    ("wonderful_model", "permute_point", "wonderful_model.permute_point"),
    ("combinatorics", "enumerate_chains", "combinatorics.enumerate_chains"),
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.emit"),
)
HANDLER_SPAN = "cli.handler"
COUNT_SPAN = "trace.count"

CALL_METRICS = ("linalg.sparse_rank", "rep_ring.pieri_h", "rep_ring.pieri_e",
                "wonderful_model.is_on_model", "combinatorics.enumerate_chains")
SELF_METRICS = tuple(span for _, _, span in SPANS
                     if span not in ("cli.main", "cli.emit"))
COUNT_METRICS = ("linalg.rows", "linalg.nnz", "linalg.rank",
                 "poset_homology.simplices", "poset_homology.hopf_fixed_tests",
                 "rep_ring.pieri.terms_out", "cohomology.products_evaluated",
                 "cup_product.pairing_keys", "cup_product.branching_candidates",
                 "wonderful_model.nested_pairs")
# Cache groups: every lru_cache of poset_homology, and character_table alone.
CACHE_GROUPS = ("poset_homology", "rep_ring.character_table")


def partition_count(n: int) -> int:
    """Number of partitions of n (Euler's recurrence by parts)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


# Counters take (tracer, args, kwargs, result) and run only when the call did work:
# a call answered from its own lru_cache adds nothing.
def _count_sparse_rank(tr, args, kwargs, rank):
    rows = args[0]
    tr.counts["linalg.rows"] += len(rows)
    tr.counts["linalg.nnz"] += sum(1 for row in rows for v in row.values() if v)
    tr.counts["linalg.rank"] += rank


def _count_interval_complex(tr, args, kwargs, cx):
    tr.chain_totals[cx.top_size] = sum(len(cs) for cs in cx.chains.values())
    tr.counts["poset_homology.simplices"] += sum(
        len(cs) for d, cs in cx.chains.items() if d >= 0)


def _count_hopf(tr, args, kwargs, char):
    n = args[0]
    if n:
        # The Hopf trace tests every chain (the empty one included) once per
        # cycle type.
        tr.counts["poset_homology.hopf_fixed_tests"] += (
            tr.chain_totals[n] * partition_count(n))


def _count_pieri(tr, args, kwargs, vec):
    tr.counts["rep_ring.pieri.terms_out"] += len(vec.coeffs)


def _count_induction(tr, args, kwargs, vec):
    n, i = args[0], args[1]
    if 2 * i <= n:
        # Ordered tuples of even parts summing to 2i, then their multisets.
        compositions = 2 ** (i - 1) if i else 1
        tr.counts["cohomology.products_evaluated"] += compositions + partition_count(i)


def _count_cup_span(tr, args, kwargs, vec):
    n = args[0]
    cross_check = args[1] if len(args) > 1 else kwargs.get("cross_check", True)
    if cross_check:
        tr.counts["cup_product.pairing_keys"] += 3 * comb(n, 4)


def _count_branching(tr, args, kwargs, cert):
    tr.counts["cup_product.branching_candidates"] += partition_count(args[0].n + 1)


def _count_membership(tr, args, kwargs, on_model):
    if on_model:
        # A passing scan visits every pair I < J of nonempty subsets of [n].
        n = args[0].n
        tr.counts["wonderful_model.nested_pairs"] += 3 ** n - 2 ** (n + 1) + 1


COUNTERS = {
    "linalg.sparse_rank": _count_sparse_rank,
    "poset_homology.build_interval_complex": _count_interval_complex,
    "poset_homology.equivariant_top_character": _count_hopf,
    "rep_ring.pieri_h": _count_pieri,
    "rep_ring.pieri_e": _count_pieri,
    "cohomology.rep_via_induction": _count_induction,
    "cup_product.cup_span_representation": _count_cup_span,
    "cup_product.branching_certificate": _count_branching,
    "wonderful_model.is_on_model": _count_membership,
}


def self_times(spans) -> list[float]:
    """Self time of each span in a list of (name, start, end, parent index).

    A span's self time is its duration minus the length of the union of its
    children's intervals, each clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters of one process; install() wraps, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.chain_totals: dict[int, int] = {}
        self._stack: list[int] = []
        self._restore: list = []
        self._caches: dict[str, list] = {}

    def wrap(self, fn, name, counter=None):
        """A callable that runs fn inside a span called name."""
        spans, stack, clock = self.spans, self._stack, self.clock
        cache_info = getattr(fn, "cache_info", None)
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            misses = cache_info().misses if cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if counter is not None and (cache_info is None
                                        or cache_info().misses > misses):
                self._count(counter, args, kwargs, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter, args, kwargs, result, parent):
        start = self.clock()
        counter(self, args, kwargs, result)
        self.spans.append((COUNT_SPAN, start, self.clock(), parent))

    def install(self) -> None:
        """Wrap every entry point in SPANS and every CLI handler."""
        import coxtoric  # noqa: F401  (loads every layer module)
        from coxtoric import cli, rep_ring
        modules = [m for key, m in sys.modules.items()
                   if key == "coxtoric" or key.startswith("coxtoric.")]
        self._caches = {
            "poset_homology": [
                obj for obj in vars(sys.modules["coxtoric.poset_homology"]).values()
                if hasattr(obj, "cache_info")
                and getattr(obj, "__module__", "") == "coxtoric.poset_homology"],
            "rep_ring.character_table": [rep_ring.character_table],
        }
        for module_name, target, name in SPANS:
            module = sys.modules[f"coxtoric.{module_name}"]
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                self._set(owner, attr, self.wrap(original, name, COUNTERS.get(name)))
                continue
            original = getattr(module, target)
            wrapped = self.wrap(original, name, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for command, handler in list(cli.HANDLERS.items()):
            wrapped = self.wrap(handler, HANDLER_SPAN)
            cli.HANDLERS[command] = wrapped
            self._restore.append((cli.HANDLERS.__setitem__, command, handler))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            setter, *args = self._restore.pop()
            setter(*args)

    def summary(self) -> dict:
        """Calls, self time and errors per span name, counters, cache stats."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            if name != COUNT_SPAN:
                calls[name] += 1
                self_s[name] += own
        caches = {}
        for group, fns in self._caches.items():
            infos = [fn.cache_info() for fn in fns]
            caches[group] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "errors": dict(self.errors), "counts": dict(self.counts),
                "caches": caches}


def merge(summaries) -> dict:
    """Sum a list of summary() results field by field."""
    out = {"calls": Counter(), "self_s": Counter(), "errors": Counter(),
           "counts": Counter(), "caches": {g: [0, 0] for g in CACHE_GROUPS}}
    for s in summaries:
        for key in ("calls", "self_s", "errors", "counts"):
            out[key].update(s.get(key, {}))
        for group, (hits, misses) in s.get("caches", {}).items():
            out["caches"][group][0] += hits
            out["caches"][group][1] += misses
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} of one merged summary, for every
    layer but cli (whose metrics come from the README sweep)."""
    calls, self_s = summary["calls"], summary["self_s"]
    counts, errors, caches = summary["counts"], summary["errors"], summary["caches"]
    out: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0), "count")
    out["linalg.rank_per_row"] = (
        _ratio(counts.get("linalg.rank", 0), counts.get("linalg.rows", 0)), "ratio")
    for group in CACHE_GROUPS:
        hits, misses = caches[group]
        out[f"{group}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    return out


def cli_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """cli.main.self_s (parsing plus emitting, handlers excluded) and cli.errors."""
    self_s = summary["self_s"]
    return {
        "cli.main.self_s": (self_s.get("cli.main", 0.0) + self_s.get("cli.emit", 0.0), "s"),
        "cli.errors": (summary["errors"].get("cli", 0), "count"),
    }
