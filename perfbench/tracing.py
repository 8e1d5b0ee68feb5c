"""Timing shims around the public entry points of each layer.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being traced. :func:`install` replaces each entry point in
:data:`LAYERS` with a shim that records a span (name, start, end,
enclosing span, item count) into a :class:`Tracer`. Functions are
rebound in *every* ``repro`` module that holds them, because a
``from x import f`` caller looks up its own module's binding, not the
defining module's; methods are replaced on the class that defines them.

A shim records only while its tracer is active, only in the process that
installed it (forked pool workers inherit the shims but their spans
would be lost, so work inside a worker is seen as the parent's
``runtime.pool_wait_s``), and only when no span of the same name is
already open, so a forest's ``predict_proba`` calling each tree's is one
span, not fifty.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

class Tracer:
    """In-memory span recorder; spans are written out only at the end."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        # span: [name, start, end, parent index or -1, items]
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._pairs_seen: set = set()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def shim(self, fn: Callable, name: str, items: Callable | None = None,
             when: Callable | None = None) -> Callable:
        """*fn* wrapped in a span called *name*.

        ``items(tracer, args, result)`` gives the span's item count;
        ``when(args)`` restricts recording to matching calls (e.g. LSH
        blockers only).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if (
                not self.active
                or os.getpid() != self.pid
                or self._open.get(name)
                or (when is not None and not when(args))
            ):
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self.spans.append(span)
            self._stack.append(index)
            self._open[name] = 1
            span[1] = start = perf_counter()
            self.overhead_s += start - entered
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                self._stack.pop()
                self._open[name] = 0
            if items is not None:
                span[4] = items(self, args, result)
            self.overhead_s += perf_counter() - end
            return result

        return wrapper

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def covered_s(self, start: float, end: float) -> float:
        """Time within [start, end] covered by top-level spans."""
        return sum(
            max(0.0, min(e, end) - max(s, start))
            for _, s, e, parent, _ in self.spans
            if parent < 0
        )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {busy_s (inclusive), self_s, calls, items}."""
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, n = span
            row = totals.setdefault(
                name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "items": 0}
            )
            row["busy_s"] += end - start
            row["self_s"] += own
            row["calls"] += 1
            row["items"] += n
        return totals

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (parent process only)."""
        if os.getpid() != self.pid:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "items"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


# -- item counters ------------------------------------------------------

def _len_result(tracer: Tracer, args, result) -> int:
    return len(result)


def _rows_arg(tracer: Tracer, args, result) -> int:
    return len(args[1])


def _extracted(tracer: Tracer, args, result) -> int:
    tracer._pairs_seen.update(result.pairs)
    return len(result)


def _cache_delta(tracer: Tracer, method: Callable) -> Callable:
    """Wrap a TokenCache method so the hit/miss deltas of outermost calls
    land in the tracer's counters."""

    @functools.wraps(method)
    def counted(self, *args, **kwargs):
        if tracer._open.get("cache_delta"):
            return method(self, *args, **kwargs)
        hits, misses = self.hits, self.misses
        tracer._open["cache_delta"] = 1
        try:
            return method(self, *args, **kwargs)
        finally:
            tracer._open["cache_delta"] = 0
            if tracer.active and os.getpid() == tracer.pid:
                tracer.count("token_cache_hits", self.hits - hits)
                tracer.count("token_cache_misses", self.misses - misses)

    return counted


def _submitted(tracer: Tracer, args, result) -> int:
    if result is None:
        tracer.count("pool_fallbacks")
        return 0
    futures, shipped = result
    tracer.count("pool_bytes", shipped)
    return len(futures)


def _gathered(tracer: Tracer, args, result) -> int:
    if result is None:
        tracer.count("pool_fallbacks")
    return 0


def _patched_records(tracer: Tracer, args, result) -> int:
    return len(result.upserted) + len(result.deleted)


def _is_lsh(args) -> bool:
    from repro.blocking.lsh import MinHashLSHBlocker

    return isinstance(args[0], MinHashLSHBlocker)


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module:qualname`` -> span ``name``."""

    name: str
    targets: tuple[str, ...]
    items: Callable | None = None
    when: Callable | None = None


#: Wrapped entry points. Where two layers share a method the later shim
#: wraps the earlier one, so ``blocking.lsh`` nests inside
#: ``blocking.block``.
LAYERS = (
    Layer("datasets.generate", (
        "repro.datasets.scenario:generate_scenario",
        "repro.datasets.scale:scale_tables",
    )),
    Layer("casestudy.preprocess", (
        "repro.casestudy.preprocess:preprocess",
        "repro.casestudy.preprocess:preprocess_extra",
    )),
    Layer("casestudy.blocking", ("repro.casestudy.blocking_plan:run_blocking",)),
    Layer("casestudy.labeling", (
        "repro.casestudy.sampling:run_sampling_and_labeling",
    )),
    Layer("casestudy.matching", ("repro.casestudy.matching:run_matching",)),
    Layer("casestudy.workflow", (
        "repro.casestudy.workflows:train_workflow_matcher",
        "repro.casestudy.workflows:run_combined_workflow",
    )),
    Layer("casestudy.accuracy", (
        "repro.casestudy.accuracy:run_accuracy_estimation",
    )),
    Layer("blocking.lsh", ("repro.blocking.base:Blocker.block_tables",),
          items=_len_result, when=_is_lsh),
    Layer("blocking.block", ("repro.blocking.base:Blocker.block_tables",),
          items=_len_result),
    Layer("blocking.preview", (
        "repro.blocking.incremental:IncrementalBlocking.preview",
        "repro.blocking.incremental:_TokenIncrementalBlocking.preview",
        "repro.blocking.incremental:AttrEquivalenceIncremental.preview",
    )),
    Layer("runtime.tokenize", (
        "repro.runtime.cache:TokenCache.column_tokens",
        "repro.runtime.cache:TokenCache.column_token_ids",
        "repro.runtime.cache:TokenCache.column_token_bag_ids",
    )),
    Layer("runtime.pool_submit", (
        "repro.runtime.executor:WorkerPool.submit_chunks",
    ), items=_submitted),
    Layer("runtime.pool_wait", ("repro.runtime.executor:WorkerPool.gather",),
          items=_gathered),
    Layer("features.extract", (
        "repro.features.vectors:extract_feature_vectors",
    ), items=_extracted),
    Layer("labeling.debug", ("repro.labeling.debugger:debug_labels",)),
    Layer("labeling.oracle", ("repro.labeling.oracle:ExpertOracle.label_pairs",),
          items=_len_result),
    Layer("ml.loo", ("repro.ml.model_selection:leave_one_out_predictions",)),
    Layer("ml.cv", ("repro.ml.model_selection:cross_validate",)),
    Layer("ml.forest_fit", ("repro.ml.forest:RandomForestClassifier.fit",)),
    Layer("ml.tree_fit", ("repro.ml.tree:DecisionTreeClassifier.fit",)),
    Layer("ml.predict", (
        "repro.ml.forest:RandomForestClassifier.predict_proba",
        "repro.ml.tree:DecisionTreeClassifier.predict_proba",
        "repro.ml.naive_bayes:GaussianNaiveBayes.predict_proba",
        "repro.ml.logistic:LogisticRegression.predict_proba",
        "repro.ml.linreg:LinearRegressionClassifier.predict_proba",
        "repro.ml.svm:LinearSVM.predict_proba",
    ), items=_rows_arg),
    Layer("matchers.select", ("repro.matchers.select:select_matcher",)),
    Layer("rules.positive", ("repro.rules.positive:ExactNumberRule.pairs",)),
    Layer("rules.negative", ("repro.rules.negative:apply_negative_rules",)),
    Layer("evaluation.estimate", ("repro.evaluation.corleone:estimate_accuracy",)),
    Layer("serving.match", ("repro.serving.service:MatchService.match",),
          items=lambda tracer, args, result: len(result.candidates)),
    Layer("serving.patch", ("repro.serving.service:MatchService.apply_patch",),
          items=_patched_records),
)

def _import_all() -> None:
    """Load every ``repro`` module so every binding can be rebound."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _rebind_function(module_name: str, attr: str, shim: Callable) -> int:
    original = getattr(sys.modules[module_name], attr)
    rebound = 0
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and (
            getattr(module, attr, None) is original
        ):
            setattr(module, attr, shim)
            rebound += 1
    return rebound


def install(tracer: Tracer) -> None:
    """Install every shim of :data:`LAYERS`, recording into *tracer*
    (once per process)."""
    _import_all()
    from repro.runtime.cache import TokenCache

    for method in ("column_tokens", "column_token_ids", "column_token_bag_ids"):
        setattr(TokenCache, method,
                _cache_delta(tracer, TokenCache.__dict__[method]))
    for layer in LAYERS:
        for target in layer.targets:
            module_name, qualname = target.split(":")
            module = sys.modules[module_name]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method,
                        tracer.shim(original, layer.name, layer.items, layer.when))
            else:
                original = getattr(module, qualname)
                shim = tracer.shim(original, layer.name, layer.items, layer.when)
                if not _rebind_function(module_name, qualname, shim):
                    raise RuntimeError(f"no binding of {target} to wrap")


# -- per-layer metrics --------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values of one traced run.

    *extra* carries the numbers only the workload knows (true-match
    count, per-batch patch costs, coverage, wall time).
    """
    totals = tracer.layer_totals()

    def busy(name: str) -> float:
        return totals.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def items(name: str) -> float:
        return totals.get(name, {}).get("items", 0)

    c = tracer.counters
    out = {"datasets.generate_s": busy("datasets.generate")}
    for stage in ("preprocess", "blocking", "labeling", "matching",
                  "workflow", "accuracy"):
        out[f"casestudy.{stage}_s"] = busy(f"casestudy.{stage}")
    out.update({
        "blocking.block_s": busy("blocking.block"),
        "blocking.block_calls": calls("blocking.block"),
        "blocking.pairs_out": items("blocking.block"),
        "blocking.lsh_s": busy("blocking.lsh"),
        "blocking.pairs_per_true_match": _ratio(
            items("blocking.block"),
            calls("blocking.block") * extra.get("true_matches", 0),
        ),
        "blocking.preview_s": busy("blocking.preview"),
        "blocking.preview_calls": calls("blocking.preview"),
        "runtime.tokenize_s": busy("runtime.tokenize"),
        "runtime.token_cache_hit_ratio": _ratio(
            c.get("token_cache_hits", 0),
            c.get("token_cache_hits", 0) + c.get("token_cache_misses", 0),
        ),
        "runtime.pool_chunks": items("runtime.pool_submit"),
        "runtime.pool_bytes": c.get("pool_bytes", 0),
        "runtime.pool_submit_s": busy("runtime.pool_submit"),
        "runtime.pool_wait_s": busy("runtime.pool_wait"),
        "runtime.pool_fallbacks": c.get("pool_fallbacks", 0),
        "features.extract_s": busy("features.extract"),
        "features.extract_calls": calls("features.extract"),
        "features.pairs_extracted": items("features.extract"),
        "features.distinct_pair_ratio": _ratio(
            len(tracer._pairs_seen), items("features.extract")
        ),
        "labeling.debug_s": busy("labeling.debug"),
        "labeling.oracle_s": busy("labeling.oracle"),
        "labeling.pairs_labeled": items("labeling.oracle"),
    })
    for name in ("loo", "cv", "forest_fit", "tree_fit"):
        out[f"ml.{name}_s"] = busy(f"ml.{name}")
        out[f"ml.{name}_calls"] = calls(f"ml.{name}")
    out.update({
        "ml.predict_s": busy("ml.predict"),
        "ml.predict_rows": items("ml.predict"),
        "matchers.select_s": busy("matchers.select"),
        "rules.positive_s": busy("rules.positive"),
        "rules.negative_s": busy("rules.negative"),
        "evaluation.estimate_s": busy("evaluation.estimate"),
        "serving.match_s": busy("serving.match"),
        "serving.patch_s": busy("serving.patch"),
        "serving.match_candidates": _ratio(
            items("serving.match"), calls("serving.match")
        ),
    })
    for batch in (1, 8, 64):
        out[f"serving.patch_ms_per_record_b{batch}"] = extra.get(
            f"patch_ms_per_record_b{batch}", 0.0
        )
    out["obs.trace_overhead_s"] = tracer.overhead_s
    out["obs.top_span_coverage"] = extra["coverage"]
    return out


#: Where each layer must fire (work > 0) and where it must read zero, by
#: workload — the layer-to-metric map of README.md. A layer whose shim
#: stops firing where it should (a renamed import, a moved call) or
#: starts firing where it should not fails the traced run.
EXPECT: dict[str, tuple[set[str], set[str]]] = {
    # metric: (fires on, reads zero on)
    "datasets.generate_s": ({"casestudy_full", "block_scale"}, set()),
    **{
        f"casestudy.{stage}_s": ({"casestudy_full"}, {"serve_mixed", "block_scale"})
        for stage in ("preprocess", "blocking", "labeling", "matching",
                      "workflow", "accuracy")
    },
    "blocking.block_s": ({"casestudy_full", "block_scale"}, {"serve_mixed"}),
    "blocking.lsh_s": ({"block_scale"}, {"casestudy_full", "serve_mixed"}),
    "blocking.preview_s": ({"serve_mixed"}, {"block_scale"}),
    "runtime.tokenize_s": ({"casestudy_full", "block_scale"}, set()),
    "runtime.pool_chunks": ({"casestudy_full", "block_scale"}, {"serve_mixed"}),
    "runtime.pool_wait_s": ({"casestudy_full", "block_scale"}, {"serve_mixed"}),
    "features.extract_s": ({"casestudy_full", "serve_mixed"}, {"block_scale"}),
    "labeling.debug_s": ({"casestudy_full"}, {"serve_mixed", "block_scale"}),
    "labeling.oracle_s": ({"casestudy_full"}, {"serve_mixed", "block_scale"}),
    **{
        f"ml.{name}_s": ({"casestudy_full"}, {"serve_mixed", "block_scale"})
        for name in ("loo", "cv", "forest_fit", "tree_fit")
    },
    "ml.predict_s": ({"casestudy_full", "serve_mixed"}, {"block_scale"}),
    "matchers.select_s": ({"casestudy_full"}, {"serve_mixed", "block_scale"}),
    "rules.positive_s": ({"casestudy_full", "serve_mixed"}, {"block_scale"}),
    "rules.negative_s": ({"casestudy_full", "serve_mixed"}, {"block_scale"}),
    "evaluation.estimate_s": ({"casestudy_full"}, {"serve_mixed", "block_scale"}),
    "serving.match_s": ({"serve_mixed"}, {"casestudy_full", "block_scale"}),
    "serving.patch_s": ({"serve_mixed"}, {"casestudy_full", "block_scale"}),
}


def coverage_failures(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layers that did not fire where expected, or fired where they must not."""
    failures = []
    for metric, (fires, zero) in EXPECT.items():
        value = metrics[metric]
        if workload in fires and value <= 0:
            failures.append(f"{metric} did not fire on {workload}")
        if workload in zero and value != 0:
            failures.append(f"{metric} reads {value:g} on {workload}, expected 0")
    if metrics["obs.top_span_coverage"] < 0.95:
        failures.append(
            f"top-level spans cover {metrics['obs.top_span_coverage']:.1%} "
            f"of the timed region on {workload}, expected >= 95%"
        )
    return failures
