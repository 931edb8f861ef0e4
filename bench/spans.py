"""Outside-in layer tracing: wrappers around the calls one module makes
into another, installed from the benchmark only while a traced iteration
runs.

Wrappers replace module and class attributes where the caller looks them
up (``harness`` and ``model`` bind their imports at module level, so the
names are wrapped in the calling module).  A span is
``[name, start, end, parent index, iteration id]``; calls too frequent and
too short to time (``Tensor.__init__``, ``EmbeddingSet.class_index``) are
only counted, keyed by the innermost open span.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

from gcproto import autodiff, harness, model, retrieval
from gcproto.store import EmbeddingSet, PrototypeSet

# (owner, attribute, span name); the same name on several owners means one
# function reached through several modules.
SPAN_TARGETS = (
    (harness, "resolve_data", "harness.resolve_data"),
    (harness, "generate_synthetic", "synthetic.generate"),
    (harness, "obtain_model", "harness.obtain_model"),
    (harness, "build_protocol_prototypes", "harness.protocol"),
    (harness, "run_selector", "selectors.run"),
    (harness, "train", "model.train"),
    (harness, "select_gcp", "model.select_gcp"),
    (harness, "build_memory", "model.build_memory"),
    (model, "build_memory", "model.build_memory"),
    (harness, "generate_prototypes", "model.generate_prototypes"),
    (model, "generate_prototypes", "model.generate_prototypes"),
    (retrieval, "evaluate", "retrieval.evaluate"),
    (retrieval, "cdist", "retrieval.cdist"),
    (PrototypeSet, "__post_init__", "store.pset_build"),
    (PrototypeSet, "flattened", "store.flattened"),
    (EmbeddingSet, "__init__", "store.eset_build"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
)
COUNT_TARGETS = (
    (autodiff.Tensor, "__init__", "autodiff.tensor"),
    (EmbeddingSet, "class_index", "store.class_index"),
)


def _on_cdist(tracer, args, result):
    rows, cols = result.shape
    tracer.add("retrieval.distance_pairs", rows * cols)
    tracer.add("retrieval.distance_flops", 3 * rows * cols * args[0].shape[1])


def _on_selector(tracer, args, result):
    tracer.add("selectors.prototypes", result.total_count())


def _on_protocol(tracer, args, result):
    groups = result[2]
    tracer.add("harness.camfilter_groups", len(groups))
    tracer.add("harness.camfilter_fallbacks", sum(1 for g in groups if g["fallback"]))


def _on_synthetic(tracer, args, result):
    gallery, queries = result
    tracer.add("synthetic.records", len(gallery) + len(queries))


RESULT_HOOKS = {
    "retrieval.cdist": _on_cdist,
    "selectors.run": _on_selector,
    "harness.protocol": _on_protocol,
    "synthetic.generate": _on_synthetic,
}


class Tracer:
    """Spans and counts kept in memory; ``install`` and ``uninstall`` swap
    the wrappers in and out, restoring the original attribute objects."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (name, innermost span, iteration)
        self.iteration = None
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def add(self, name: str, n: int) -> None:
        self.counts[(name, None, self.iteration)] += n

    def _span_wrapper(self, name, fn):
        spans, opened, perf = self.spans, self._open, time.perf_counter
        hook = RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, perf(), None, opened[-1] if opened else None, self.iteration]
            opened.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                opened.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        spans, opened, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            inner = spans[opened[-1]][0] if opened else None
            counts[(name, inner, self.iteration)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (COUNT_TARGETS, self._count_wrapper),
        ):
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                if isinstance(original, property):
                    setattr(owner, attr, property(make(name, original.fget)))
                else:
                    setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def phase(self, iteration):
        """Trace the enclosed calls under ``iteration``."""
        self.iteration = iteration
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- derived metrics -------------------------------------------------

    def totals(self) -> dict:
        """Per iteration id: total and self seconds and call count per span
        name, plus every counter, all keyed by metric-style names."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, it) in enumerate(self.spans):
            out[it][name + ".s"] += end - start
            out[it][name + ".self_s"] += end - start - child[i]
            out[it][name + ".calls"] += 1
        for (name, inner, it), n in self.counts.items():
            out[it][name] += n
            if inner is not None:
                out[it][f"{name}@{inner}"] += n
        return out


# (metric, unit, phase, key in Tracer.totals); phase "pipeline" takes the
# median over traced iterations, "train" and "setup" their single phase.
LAYER_METRICS = (
    ("retrieval.evaluate_s", "s", "pipeline", "retrieval.evaluate.s"),
    ("retrieval.cdist_s", "s", "pipeline", "retrieval.cdist.s"),
    ("retrieval.rank_s", "s", "pipeline", "retrieval.evaluate.self_s"),
    ("retrieval.pset_groups", "count", "pipeline", "retrieval.cdist.calls"),
    ("retrieval.distance_pairs", "count", "pipeline", "retrieval.distance_pairs"),
    ("retrieval.distance_flops", "flop", "pipeline", "retrieval.distance_flops"),
    ("store.pset_builds", "count", "pipeline", "store.pset_build.calls"),
    ("store.pset_build_s", "s", "pipeline", "store.pset_build.s"),
    ("store.flattened_calls", "count", "pipeline", "store.flattened.calls"),
    ("store.flattened_s", "s", "pipeline", "store.flattened.s"),
    ("store.class_index_calls", "count", "pipeline", "store.class_index"),
    ("store.eset_builds", "count", "pipeline", "store.eset_build.calls"),
    ("store.eset_build_s", "s", "pipeline", "store.eset_build.s"),
    ("selectors.calls", "count", "pipeline", "selectors.run.calls"),
    ("selectors.s", "s", "pipeline", "selectors.run.s"),
    ("selectors.prototypes", "count", "pipeline", "selectors.prototypes"),
    ("harness.protocol_s", "s", "pipeline", "harness.protocol.s"),
    ("harness.protocol_self_s", "s", "pipeline", "harness.protocol.self_s"),
    ("harness.camfilter_groups", "count", "pipeline", "harness.camfilter_groups"),
    ("harness.camfilter_fallbacks", "count", "pipeline", "harness.camfilter_fallbacks"),
    ("model.select_gcp_s", "s", "pipeline", "model.select_gcp.s"),
    ("model.generate_calls", "count", "pipeline", "model.generate_prototypes.calls"),
    ("model.generate_s", "s", "pipeline", "model.generate_prototypes.s"),
    ("model.build_memory_calls", "count", "pipeline", "model.build_memory.calls"),
    ("autodiff.tensors_generate", "count", "pipeline",
     "autodiff.tensor@model.generate_prototypes"),
    ("model.train_s", "s", "train", "model.train.s"),
    ("model.train_steps", "count", "train", "autodiff.backward.calls"),
    ("autodiff.tensors_train", "count", "train", "autodiff.tensor@model.train"),
    ("autodiff.backward_s", "s", "train", "autodiff.backward.s"),
    ("synthetic.records", "count", "setup", "synthetic.records"),
    ("synthetic.generate_s", "s", "setup", "synthetic.generate.s"),
)


def layer_metrics(tracer: Tracer, traced_iterations: list) -> dict[str, dict]:
    """Per-layer metrics from the spans and counts; layers a workload does
    not exercise read 0."""
    totals = tracer.totals()
    out = {}
    for metric, unit, phase, key in LAYER_METRICS:
        if phase == "pipeline":
            value = statistics.median(totals[it].get(key, 0.0) for it in traced_iterations)
        else:
            value = totals[phase].get(key, 0.0)
        if unit != "s":
            value = int(value)
        out[metric] = {"value": value, "unit": unit}
    steps = out["model.train_steps"]["value"]
    out["model.step_s"] = {
        "value": out["model.train_s"]["value"] / steps if steps else 0.0,
        "unit": "s",
    }
    return out


def counts_repeat(tracer: Tracer, traced_iterations: list) -> bool:
    """Whether every count of the pipeline phase is equal across the traced
    iterations."""
    totals = tracer.totals()
    keys = [key for _, unit, phase, key in LAYER_METRICS if phase == "pipeline" and unit != "s"]
    rows = [[totals[it].get(k, 0.0) for k in keys] for it in traced_iterations]
    return all(row == rows[0] for row in rows)
