"""repro.telemetry — opt-in tracing, metrics, and run reports.

The observability layer behind the paper's "2M+ blocks without user
intervention" claim: every block the harness drops is accounted for,
every pipeline stage is timed, and every cache decision is visible.

Quickstart::

    from repro import telemetry

    telemetry.enable()                      # metrics only
    telemetry.enable("trace.ndjson")        # + NDJSON event export

    with telemetry.span("my.stage"):
        ...                                 # timed, nested, exported

    telemetry.count("my.counter")
    telemetry.observe("my.latency_ms", 1.25)

    snap = telemetry.registry().snapshot()
    report = telemetry.build_run_report(
        telemetry.registry(), name="my_run")
    telemetry.write_run_report(report)      # reports/my_run.{json,txt}

Disabled (the default), every call above is a guarded no-op: the
profiler stays within a <5 % overhead budget enforced by
``benchmarks/bench_telemetry_overhead.py``.  See docs/observability.md
for the event schema and metric catalogue.
"""

from repro.telemetry.core import (MemorySink, NdjsonSink, NullSink, Span,
                                  Telemetry, count, current_phase, disable,
                                  enable, event, get_telemetry, is_enabled,
                                  observe, read_ndjson, register_reset_hook,
                                  registry, reset, set_gauge, span, trace_id)
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
from repro.telemetry.cachestats import CacheStats
from repro.telemetry.report import (build_run_report, funnel_from_counters,
                                    render_summary, write_run_report)
from repro.telemetry.resources import (peak_rss_kb, resources_section,
                                       sample_peak_rss)
from repro.telemetry.window import WindowAggregator

__all__ = [
    # hub + lifecycle
    "Telemetry", "get_telemetry", "enable", "disable", "is_enabled",
    "reset", "register_reset_hook", "trace_id", "current_phase",
    # instrumentation points
    "span", "event", "count", "observe", "set_gauge", "registry",
    # sinks + spans
    "NullSink", "MemorySink", "NdjsonSink", "Span", "read_ndjson",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    # unified cache telemetry + windowed series
    "CacheStats", "WindowAggregator",
    # reports + process resources
    "build_run_report", "render_summary", "write_run_report",
    "funnel_from_counters",
    "peak_rss_kb", "sample_peak_rss", "resources_section",
]
