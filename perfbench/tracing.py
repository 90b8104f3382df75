"""Outside-in span tracing for the benchmark's traced runs.

The program under test is never edited: :func:`install` replaces each
public function or method listed in :data:`WRAPS` with a wrapper that
records a span (name, start, end, parent) and puts the original back
on :meth:`Tracer.uninstall`.  A function is patched where its caller
looks it up — ``repro.eval.pipeline.build_corpus``, not
``repro.corpus.dataset.build_corpus``, because the pipeline imported
the name directly.

Spans live in memory and are summarised once, after the traced
region: a span's *self* time is its duration minus its direct
children's, and a layer (the first dotted component of a span name,
i.e. the ``repro`` package it belongs to) reports the self time of all
its spans and the total time of its outermost ones.  Root spans plus
``unattributed_s`` cover the traced wall time exactly.

Spans recorded in forked pool workers stay in those workers; pooled
runs see worker time only as the parent's wait inside
``parallel.profile_corpus_sharded`` (``parallel.measure_self_s``).
"""

from __future__ import annotations

import importlib
import math
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.monotonic

#: Layers that report ``<layer>.self_s`` and ``<layer>.total_s``.
LAYERS = ("corpus", "classify", "profiler", "uarch", "models", "eval",
          "parallel", "resilience", "serve")

#: Named per-layer metrics (README.md says what each should move), in
#: print order.  Every traced run reports every name; a layer a
#: workload does not exercise reads 0.
LAYER_METRICS = (
    "uarch.schedule_s", "uarch.schedule_calls",
    "uarch.machine_run_self_s", "uarch.machine_run_calls",
    "profiler.map_pages_s", "profiler.map_pages_calls",
    "profiler.profile_self_s", "profiler.profiles",
    "profiler.accepted_share",
    "simcore.fastpath_share", "runtime.blockplan_share",
    "runtime.lanes_share",
    "models.IACA.predict_s", "models.llvm-mca.predict_s",
    "models.OSACA.predict_s", "models.Ithemal.predict_s",
    "models.Ithemal.fit_s", "models.predictions",
    "parallel.shard_hit_share", "parallel.resimulated_share",
    "parallel.shards", "parallel.cache_load_s",
    "parallel.cache_store_s", "parallel.retried", "parallel.failed",
    "parallel.measure_self_s",
    "resilience.journal_s", "resilience.journal_records",
    "classify.lda_s", "corpus.build_s", "eval.validate_self_s",
    "serve.server_p50_ms", "serve.server_p95_ms",
    "serve.memo_hit_share", "serve.shard_hit_share", "serve.shed",
    "serve.deadline_misses", "serve.gen_late_p95_ms", "serve.idle_s",
) + tuple(f"{layer}.{kind}" for layer in LAYERS
          for kind in ("self_s", "total_s")) + (
    "unattributed_s", "trace_overhead_share")

LAYER_UNITS = {"_s": "s", "_ms": "ms", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _model_span(args) -> str:
    return f"models.{args[0].name}.predict"


#: (module, attribute path, span name or name function).  Attribute
#: paths with a dot patch a method on a class.
WRAPS = (
    ("repro.eval.pipeline", "build_corpus", "corpus.build"),
    ("repro.eval.pipeline", "classify_blocks", "classify.classify_blocks"),
    ("repro.classify.categories", "LatentDirichletAllocation.fit_transform",
     "classify.lda"),
    ("repro.eval.pipeline", "Experiment.validation", "eval.validation"),
    ("repro.eval.pipeline", "Experiment.measured", "eval.measured"),
    ("repro.eval.pipeline", "validate", "eval.validate"),
    ("repro.eval.pipeline", "profile_corpus_sharded",
     "parallel.profile_corpus_sharded"),
    ("repro.serve.core", "profile_corpus_sharded",
     "parallel.profile_corpus_sharded"),
    ("repro.parallel.shard_cache", "ShardCache.load", "parallel.cache_load"),
    ("repro.parallel.shard_cache", "ShardCache.store",
     "parallel.cache_store"),
    ("repro.resilience.journal", "RunJournal.open", "resilience.journal"),
    ("repro.resilience.journal", "RunJournal.record_shard",
     "resilience.journal"),
    ("repro.resilience.journal", "RunJournal.close", "resilience.journal"),
    ("repro.serve.requestlog", "RequestJournal.open",
     "resilience.journal"),
    ("repro.serve.requestlog", "RequestJournal.record_request",
     "resilience.journal"),
    ("repro.serve.requestlog", "RequestJournal.record_done",
     "resilience.journal"),
    ("repro.serve.requestlog", "RequestJournal.record_dropped",
     "resilience.journal"),
    ("repro.profiler.harness", "BasicBlockProfiler.profile_many",
     "profiler.profile_many"),
    ("repro.profiler.harness", "BasicBlockProfiler.profile",
     "profiler.profile"),
    ("repro.profiler.harness", "map_pages", "profiler.map_pages"),
    ("repro.uarch.machine", "Machine.run", "uarch.machine_run"),
    ("repro.uarch.scheduler", "DataflowScheduler.schedule",
     "uarch.schedule"),
    ("repro.models.base", "CostModel.predict_safe", _model_span),
    ("repro.models.ithemal", "IthemalModel.fit", "models.Ithemal.fit"),
    ("repro.serve.daemon", "parse_profile_request", "serve.parse_request"),
    ("repro.serve.core", "ProfilingService.lookup_memo",
     "serve.lookup_memo"),
    ("repro.serve.core", "ProfilingService.execute", "serve.execute"),
    ("repro.serve.http", "parse_head", "serve.http_parse"),
    ("repro.serve.http", "format_response", "serve.http_encode"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "children")

    def __init__(self, name: str, start: float, parent: "Optional[Span]"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children = 0.0  # summed duration of direct children


class Tracer:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.parallel_stats: List[Dict] = []
        self._local = threading.local()
        self._restore: List = []
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, owner, attr: str, name,
             after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name(args) if callable(name) else name, clock(),
                        stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.children += span.end - span.start
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> "Tracer":
        hooks = {
            "profiler.profile": self._after_profile,
            "parallel.profile_corpus_sharded": self._after_sharded,
            "parallel.cache_load": self._after_cache_load,
        }
        for module_name, path, name in WRAPS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name,
                      hooks.get(name) if isinstance(name, str) else None)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def dump(self) -> Dict:
        """JSON form, for spans recorded in another process."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {"spans": [[s.name, s.start, s.end,
                           index[id(s.parent)] if s.parent else -1,
                           s.children] for s in self.spans],
                "counts": self.counts,
                "parallel_stats": self.parallel_stats}

    @classmethod
    def load(cls, doc: Dict) -> "Tracer":
        tracer = cls()
        for name, start, end, parent, children in doc["spans"]:
            span = Span(name, start,
                        tracer.spans[parent] if parent >= 0 else None)
            span.end = end
            span.children = children
            tracer.spans.append(span)
        tracer.counts = doc["counts"]
        tracer.parallel_stats = doc["parallel_stats"]
        return tracer

    # -- counters taken at the layer boundary -----------------------------

    def _after_profile(self, args, kwargs, result) -> None:
        self.count("profiler.accepted", 1.0 if result.ok else 0.0)

    def _after_sharded(self, args, kwargs, result) -> None:
        stats = dict(kwargs.get("stats") or {})
        stats["blocks"] = result.funnel.get("total", 0)
        with self._lock:
            self.parallel_stats.append(stats)

    def _after_cache_load(self, args, kwargs, result) -> None:
        # Only the engine's own lookups count as hits; serve also reads
        # the cache back to name drop reasons.
        stack = self._stack()
        if result is not None and stack \
                and stack[-1].name == "parallel.profile_corpus_sharded":
            self.count("parallel.hit_blocks", len(args[1]))

    # -- summary -----------------------------------------------------------

    def summary(self, wall_start: float, wall_end: float) -> Dict[str, float]:
        """Per-layer metrics over spans that start inside the window."""
        spans = [s for s in self.spans
                 if wall_start <= s.start and s.end <= wall_end]
        by_name: Dict[str, List[float]] = {}
        for span in spans:
            calls, total, self_s = by_name.setdefault(span.name,
                                                      [0, 0.0, 0.0])
            by_name[span.name] = [
                calls + 1, total + span.end - span.start,
                self_s + (span.end - span.start) - span.children]

        def total(name):
            return by_name.get(name, [0, 0.0, 0.0])[1]

        def self_time(name):
            return by_name.get(name, [0, 0.0, 0.0])[2]

        def calls(name):
            return by_name.get(name, [0, 0.0, 0.0])[0]

        out: Dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
        out.update({
            "uarch.schedule_s": total("uarch.schedule"),
            "uarch.schedule_calls": calls("uarch.schedule"),
            "uarch.machine_run_self_s": self_time("uarch.machine_run"),
            "uarch.machine_run_calls": calls("uarch.machine_run"),
            "profiler.map_pages_s": total("profiler.map_pages"),
            "profiler.map_pages_calls": calls("profiler.map_pages"),
            "profiler.profile_self_s": self_time("profiler.profile")
            + self_time("profiler.profile_many"),
            "profiler.profiles": calls("profiler.profile"),
            "models.Ithemal.fit_s": total("models.Ithemal.fit"),
            "parallel.cache_load_s": total("parallel.cache_load"),
            "parallel.cache_store_s": total("parallel.cache_store"),
            "parallel.measure_self_s": self_time(
                "parallel.profile_corpus_sharded"),
            "resilience.journal_s": total("resilience.journal"),
            "resilience.journal_records": calls("resilience.journal"),
            "classify.lda_s": total("classify.lda"),
            "corpus.build_s": total("corpus.build"),
            "eval.validate_self_s": self_time("eval.validate"),
            "serve.idle_s": total("loop.idle"),
        })
        predictions = 0
        for model in ("IACA", "llvm-mca", "OSACA", "Ithemal"):
            out[f"models.{model}.predict_s"] = total(
                f"models.{model}.predict")
            predictions += calls(f"models.{model}.predict")
        out["models.predictions"] = predictions
        profiles = calls("profiler.profile")
        if profiles:
            out["profiler.accepted_share"] = \
                self.counts.get("profiler.accepted", 0.0) / profiles
        shards = sum(s.get("shards", 0) for s in self.parallel_stats)
        blocks = sum(s.get("blocks", 0) for s in self.parallel_stats)
        out["parallel.shards"] = shards
        out["parallel.retried"] = sum(s.get("retried", 0)
                                      for s in self.parallel_stats)
        out["parallel.failed"] = sum(s.get("failed", 0)
                                     for s in self.parallel_stats)
        if shards:
            out["parallel.shard_hit_share"] = sum(
                s.get("cache_hits", 0) for s in self.parallel_stats) / shards
        if blocks:
            out["parallel.resimulated_share"] = \
                (blocks - self.counts.get("parallel.hit_blocks", 0.0)) \
                / blocks

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                values[2] for name, values in by_name.items()
                if name.split(".")[0] == layer)
            out[f"{layer}.total_s"] = sum(
                span.end - span.start for span in spans
                if span.name.split(".")[0] == layer
                and not _has_ancestor_in(span, layer))
        roots = sorted((s.start, s.end) for s in spans if s.parent is None)
        out["unattributed_s"] = (wall_end - wall_start) - _union(roots)
        out["root_s"] = _union(roots)
        out["spans"] = len(spans)
        return out


def _has_ancestor_in(span: Span, layer: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name.split(".")[0] == layer:
            return True
        parent = parent.parent
    return False


def _union(intervals) -> float:
    """Length covered by sorted (start, end) intervals."""
    covered = 0.0
    cur_start = cur_end = -math.inf
    for start, end in intervals:
        if start > cur_end:
            if cur_end > cur_start:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end > cur_start:
        covered += cur_end - cur_start
    return covered


def span_cost_s(samples: int = 20000) -> float:
    """Calibrated cost of one wrapped call, for overhead estimates."""
    tracer = Tracer()

    class Probe:
        def noop(self):
            return None

    probe = Probe()
    start = clock()
    for _ in range(samples):
        probe.noop()
    bare = clock() - start
    tracer.wrap(Probe, "noop", "probe")
    start = clock()
    for _ in range(samples):
        probe.noop()
    return max(0.0, (clock() - start - bare) / samples)
