"""Per-layer tracing from outside the program.

The tracer wraps reglab's public functions in place, in every module
namespace that holds them, because modules import names directly (for
example ``partition``, ``experiments`` and ``randgraph.sample_class`` all
reach ``check_regular_exhaustive``).  Each call becomes a span (name, start,
end, parent) kept in memory and written out when the traced round ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.  Names that a later refactor removed are reported as missing instead
of failing.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

#: layer -> public names (module, attribute path) whose calls it owns.
LAYERS = {
    "regularity.exhaustive": [("reglab.regularity", "check_regular_exhaustive")],
    "regularity.sampled": [("reglab.regularity", "refute_regular_sampled")],
    "partition.evaluate": [("reglab.partition", "evaluate_partition"), ("reglab.partition", "partition_energy")],
    "partition.refine": [("reglab.partition", "sparse_regular_partition")],
    "partition.clean": [
        ("reglab.partition", "clean_partition"),
        ("reglab.partition", "reduced_weighted_graph"),
        ("reglab.partition", "trim_min_degree"),
    ],
    "randgraph.gnp": [("reglab.randgraph", "gnp")],
    "graphs.induced_multipartite": [("reglab.graphs", "induced_multipartite")],
    "graphs.pair_subgraph": [("reglab.graphs", "MultipartiteGraph.pair_subgraph")],
    "graphs.parse": [
        ("reglab.graphs", "SimpleGraph.from_edge_list"),
        ("reglab.graphs", "MultipartiteGraph.from_json"),
        ("reglab.graphs", "PatternGraph.from_json"),
    ],
    "graphs.emit": [("reglab.graphs", "SimpleGraph.to_edge_list")],
    "counting.canonical": [("reglab.counting", "canonical_count")],
    "embedding.count": [
        ("reglab.embedding", "count_embeddings"),
        ("reglab.embedding", "count_embeddings_through_edge"),
    ],
    "embedding.iter": [("reglab.embedding", "iter_embeddings")],
    "embedding.find": [("reglab.embedding", "find_embedding")],
    "embedding.kcliques": [("reglab.embedding", "count_kcliques")],
    "experiments.self": [
        ("reglab.experiments", name)
        for name in (
            "run_counting", "run_removal", "run_clique_density", "run_packing", "packing_pipeline",
            "run_partite_stability", "run_turan", "probe_copy_free_class",
        )
    ],
    "experiments.clique_factor": [("reglab.experiments", "clique_factor")],
    "patterns.analysis": [
        ("reglab.patterns", "two_density"),
        ("reglab.patterns", "chromatic_number"),
        ("reglab.patterns", "is_strictly_balanced"),
    ],
    # gk_bruteforce lives in counting but is the dense-minimum oracle built on smallgraphs
    "smallgraphs.oracle": [("reglab.counting", "gk_bruteforce")]
    + [
        ("reglab.smallgraphs", name)
        for name in ("nonisomorphic_graphs", "canonical_cert", "clique_count", "complement", "count_graphs")
    ],
    "cli.self": [("reglab.cli", "main")],
}

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    "regularity.exhaustive_s": "s",
    "regularity.exhaustive_calls": "count",
    "regularity.exhaustive_subsets": "count",
    "regularity.sampled_s": "s",
    "regularity.sampled_calls": "count",
    "partition.evaluate_s": "s",
    "partition.refine_s": "s",
    "partition.rounds": "count",
    "partition.clean_s": "s",
    "randgraph.gnp_s": "s",
    "randgraph.gnp_peak_mb": "MB",
    "graphs.induced_multipartite_s": "s",
    "graphs.induced_multipartite_peak_mb": "MB",
    "graphs.pair_subgraph_s": "s",
    "graphs.parse_s": "s",
    "graphs.emit_s": "s",
    "counting.canonical_s": "s",
    "embedding.count_s": "s",
    "embedding.count_calls": "count",
    "embedding.iter_s": "s",
    "embedding.find_s": "s",
    "embedding.kcliques_s": "s",
    "experiments.self_s": "s",
    "experiments.clique_factor_s": "s",
    "patterns.analysis_s": "s",
    "smallgraphs.oracle_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

#: Layers whose calls also record the tracemalloc peak of the call.
PEAK_LAYERS = ("randgraph.gnp", "graphs.induced_multipartite")
#: count metric -> the single public name whose calls it counts.
CALL_COUNTS = {
    "regularity.exhaustive_calls": "reglab.regularity.check_regular_exhaustive",
    "regularity.sampled_calls": "reglab.regularity.refute_regular_sampled",
    "embedding.count_calls": "reglab.embedding.count_embeddings",
    "partition.rounds": "reglab.partition.evaluate_partition",
}


def _exhaustive_subsets(args, kwargs) -> int:
    """C(|U|, max(1, ceil(eps |U|))): the U-subsets one exhaustive call scans."""
    pair = args[1] if len(args) > 1 else kwargs["pair"]
    eps = args[2] if len(args) > 2 else kwargs["epsilon"]
    size = len(pair.U)
    return math.comb(size, max(1, math.ceil(eps * size))) if size else 0


#: qualified name -> function of the call arguments adding to a counter.
ARG_COUNTERS = {
    "reglab.regularity.check_regular_exhaustive": ("regularity.exhaustive_subsets", _exhaustive_subsets),
}


class Tracer:
    """Installs span-recording wrappers and holds the spans of one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.missing: list[str] = []

    def _span_wrapper(self, qualname: str, fn, peak_key: str | None):
        spans, stack, counters = self.spans, self.stack, self.counters
        counter = ARG_COUNTERS.get(qualname)

        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            started_tracing = peak_key is not None and not tracemalloc.is_tracing()
            if started_tracing:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if started_tracing:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    counters[peak_key] = max(counters[peak_key], peak)
                stack.pop()
                spans[index] = (qualname, start, end, parent)

        return wrapper

    def _generator_wrapper(self, qualname: str, fn):
        """Each resumption of the generator is one span; consumer time is not counted."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans[index] = (qualname, start, time.perf_counter(), parent)
                yield item

        return wrapper

    def install(self, layers: dict = LAYERS) -> None:
        """Wrap every name of ``layers`` (a fake table in tests) in all reglab modules."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("reglab") and m is not None]
        for layer, names in layers.items():
            peak_key = f"{layer}_peak_mb" if layer in PEAK_LAYERS else None
            for module_name, path in names:
                qualname = f"{module_name}.{path}"
                owner = sys.modules.get(module_name)
                *class_path, attr = path.split(".")
                for part in class_path:
                    owner = getattr(owner, part, None)
                raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not callable(fn):
                    self.missing.append(qualname)
                    continue
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._generator_wrapper(qualname, fn)
                else:
                    wrapper = self._span_wrapper(qualname, fn, peak_key)
                if class_path:
                    setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counters": self.counters, "missing": self.missing}, handle)
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def layer_of() -> dict[str, str]:
    return {f"{module}.{path}": layer for layer, names in LAYERS.items() for module, path in names}


def summarize(path: str) -> tuple[dict[str, float], list[str]]:
    """Per-layer self seconds, call counts and counters of one traced round."""
    with open(path, encoding="utf-8") as handle:
        head = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    owner = layer_of()
    metrics: dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS}
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, parent), children in zip(spans, child_time):
        metrics[f"{owner[name]}_s"] += end - start - children
        calls[name] += 1
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = calls[name]
    metrics["regularity.exhaustive_subsets"] = 0
    for layer in PEAK_LAYERS:
        metrics[f"{layer}_peak_mb"] = 0.0
    metrics.update(head["counters"])
    return metrics, head["missing"]
