"""Outside-in tracing of the sjlt layers for the benchmark's traced run.

The tracer patches public functions at each module boundary, at the name
their caller looks them up (``sjlt.transform.eval_bucket_batch`` is what
``apply_with_generators`` calls, ``sjlt.cli.class_histogram`` is what the
``graph-count`` command calls), so no file in ``src/`` changes. Each wrapped
call is a span; a span's self time is its duration minus the time its child
spans cover. Aggregates (calls, total, self, counters) are kept for every
name; full span records are kept in memory only for the coarse names listed in
``_KEPT`` and written out once, at the end. The tracer is single-threaded: the
traced pass runs with one worker, and a call from another thread is an error.
"""

from __future__ import annotations

import json
import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import sjlt.chaos
import sjlt.cli
import sjlt.graphs
import sjlt.transform

# Spans kept as full records (one CLI call produces tens of these); the rest
# fire per trial or per sequence and are only aggregated.
_KEPT = frozenset({
    "cli.main", "transform.apply", "transform.read_sparse_vectors",
    "transform.write_dense_vectors", "transform.derive_spec",
    "transform.distortion_bench", "chaos.tail_estimate", "graphs.class_histogram",
    "chaos.moment_report", "chaos.exact_moment", "chaos.graph_expansion_moment",
    "chaos.monte_carlo_moment", "chaos.moment_upper_bound", "graphs.census",
    "stats.partitioned_count",
})


@dataclass
class _Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket a pass."""

    def __init__(self) -> None:
        self.aggregates: dict[str, _Aggregate] = defaultdict(_Aggregate)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # frames: [child_seconds, kept_span_id]
        self._next_id = 0
        self._call_id = 0
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) as a span named `name`.

        `count(args, kwargs, result)` may return counter increments, recorded
        at the same boundary.
        """
        if threading.get_ident() != self._thread:
            raise RuntimeError("the tracer records one thread; run traced passes unthreaded")
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        span_id = None
        if name in _KEPT:
            self._next_id += 1
            span_id = self._next_id
        frame = [0.0, span_id if span_id is not None else (parent[1] if parent else None)]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            aggregate = self.aggregates[name]
            aggregate.calls += 1
            aggregate.total_s += duration
            aggregate.self_s += max(0.0, duration - frame[0])
            if parent is not None:
                parent[0] += duration
            if span_id is not None:
                self.spans.append((self._call_id, span_id, parent[1] if parent else None,
                                   name, start, end))
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                self.counters[key] += value
        return result

    def cli_call(self, main, argv):
        """One CLI invocation: the root span that every layer span hangs off."""
        self._call_id += 1
        code = self.call("cli.main", main, (argv,))
        self.counters["cli.failures"] += int(code != 0)
        return code

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr: str, name: str, count=None, wrap_arg=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if wrap_arg is not None:
                args = wrap_arg(args)
            return self.call(name, original, args, kwargs, count)

        wrapper.__wrapped__ = original
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        t, c, g, cli = sjlt.transform, sjlt.chaos, sjlt.graphs, sjlt.cli
        census = g._census

        def evals(args, kwargs, result):
            return {"kwise.hash_evals": len(args[1])}

        def entries(args, kwargs, result):
            return {"transform.entries_parsed": sum(x.nnz for x in result)}

        def written(args, kwargs, result):
            return {"transform.values_written": sum(len(y) for y in args[1])}

        def assignments(args, kwargs, result):
            inst = args[0]
            return {"chaos.assignments": inst.k ** inst.d * 2 ** inst.d}

        def sequences(args, kwargs, result):
            inst, m = args[0], args[1]
            return {"chaos.sequences_weighted": math.comb(inst.d, 2) ** (2 * m)}

        misses = [census.cache_info().misses]

        def scanned(args, kwargs, result):
            now = census.cache_info().misses
            if now == misses[0]:
                return {}
            misses[0] = now
            vertices, two_m = args
            return {"graphs.sequences_scanned": math.comb(len(vertices), 2) ** two_m,
                    "graphs.eligible": sum(result[0].values())}

        def loop_span(name):
            # The trial loop partitioned_count runs belongs to the caller's
            # layer; wrapping it keeps it out of stats' self time.
            def wrap(args):
                count_fn = args[0]
                return (lambda lo, hi: self.call(name, count_fn, (lo, hi)),) + tuple(args[1:])
            return wrap

        for module, loop in ((t, "transform.trial_loop"), (c, "chaos.tail_loop")):
            self._patch(module, "eval_bucket_batch", "kwise.eval_bucket_batch", evals)
            self._patch(module, "eval_sign_batch", "kwise.eval_sign_batch", evals)
            self._patch(module, "new_generator", "kwise.new_generator")
            self._patch(module, "partitioned_count", "stats.partitioned_count",
                        wrap_arg=loop_span(loop))
        self._patch(t, "apply_with_generators", "transform.apply_with_generators")
        self._patch(t, "distortion_trial", "transform.distortion_trial")
        self._patch(t, "derive_spec", "transform.derive_spec")
        self._patch(cli, "derive_spec", "transform.derive_spec")
        self._patch(cli, "apply", "transform.apply")
        self._patch(cli, "read_sparse_vectors", "transform.read_sparse_vectors", entries)
        self._patch(cli, "write_dense_vectors", "transform.write_dense_vectors", written)
        self._patch(cli, "distortion_bench", "transform.distortion_bench")
        self._patch(cli, "tail_estimate", "chaos.tail_estimate")
        self._patch(cli, "class_histogram", "graphs.class_histogram")
        self._patch(cli, "moment_report", "chaos.moment_report")
        self._patch(c, "exact_moment", "chaos.exact_moment", assignments)
        self._patch(c, "graph_expansion_moment", "chaos.graph_expansion_moment", sequences)
        self._patch(c, "build_multigraph", "graphs.build_multigraph")
        self._patch(c, "monte_carlo_moment", "chaos.monte_carlo_moment")
        self._patch(c, "moment_upper_bound", "chaos.moment_upper_bound")
        self._patch(g, "_census", "graphs.census", scanned)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics per workload cycle (times in s, counts as counts)."""
        a, n = self.aggregates, self.counters

        def total(*names):
            return sum(a[x].total_s for x in names if x in a)

        def own(*names):
            return sum(a[x].self_s for x in names if x in a)

        def calls(name):
            return a[name].calls if name in a else 0

        hash_s = total("kwise.eval_bucket_batch", "kwise.eval_sign_batch")
        hash_evals = n["kwise.hash_evals"]
        scanned = n["graphs.sequences_scanned"]
        per_cycle = {
            "kwise.hash_s": hash_s,
            "kwise.hash_evals": hash_evals,
            "kwise.seed_expand_s": total("kwise.new_generator"),
            "kwise.generators": calls("kwise.new_generator"),
            "transform.accumulate_s": own("transform.apply_with_generators"),
            "transform.apply_self_s": own("transform.apply"),
            "transform.trial_self_s": own("transform.distortion_bench", "transform.trial_loop",
                                          "transform.distortion_trial"),
            "transform.parse_s": total("transform.read_sparse_vectors"),
            "transform.entries_parsed": n["transform.entries_parsed"],
            "transform.format_s": total("transform.write_dense_vectors"),
            "transform.values_written": n["transform.values_written"],
            "transform.spec_s": total("transform.derive_spec"),
            "chaos.tail_self_s": own("chaos.tail_estimate", "chaos.tail_loop"),
            "chaos.exact_s": total("chaos.exact_moment"),
            "chaos.assignments": n["chaos.assignments"],
            "chaos.expansion_s": total("chaos.graph_expansion_moment"),
            "chaos.sequences_weighted": n["chaos.sequences_weighted"],
            "chaos.mc_s": total("chaos.monte_carlo_moment"),
            "chaos.bound_self_s": own("chaos.moment_upper_bound"),
            "graphs.multigraph_s": total("graphs.build_multigraph"),
            "graphs.census_s": total("graphs.census"),
            "graphs.sequences_scanned": scanned,
            "stats.partition_self_s": own("stats.partitioned_count"),
            "cli.self_s": own("cli.main"),
            "cli.calls": calls("cli.main"),
            "cli.failures": n["cli.failures"],
        }
        out = {key: value / cycles for key, value in per_cycle.items()}
        out["kwise.ns_per_eval"] = hash_s / hash_evals * 1e9 if hash_evals else 0.0
        out["graphs.eligible_ratio"] = n["graphs.eligible"] / scanned if scanned else 0.0
        return out

    def write(self, path) -> None:
        """Write kept spans and the per-name aggregates as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for call_id, span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"call": call_id, "span": span_id, "parent": parent_id,
                                     "name": name, "start": start, "end": end}) + "\n")
            for name, agg in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "calls": agg.calls,
                                     "total_s": agg.total_s, "self_s": agg.self_s}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
