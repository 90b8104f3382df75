"""Windowed-series determinism: the live layer inherits the engine's
bit-for-bit contract.

Per-window percentile series are keyed to block index, so the series a
run produces must be byte-identical whether the corpus was profiled
serially, through a worker pool, with the simulation-core fast path
disabled — or under injected worker crashes (chaos is rescued
transparently).  These tests serialise the deposited window series to
JSON and compare bytes, exactly like ``tests/parallel``'s differential
suites do for profiles.
"""

import json

import pytest

from repro import envvars, telemetry
from repro.corpus.dataset import build_application
from repro.parallel import profile_corpus_sharded
from repro.telemetry import window

UARCHES = ("ivybridge", "haswell", "skylake")


def _window_series(corpus, uarch, seed, label, **kwargs):
    """One telemetry-enabled run -> its window series, as JSON bytes."""
    telemetry.reset()
    telemetry.enable(telemetry.MemorySink())
    try:
        profile_corpus_sharded(corpus, uarch, seed=seed,
                               run_label=label, **kwargs)
        series = window.runs()[label]
        records = list(telemetry.get_telemetry().sink.records)
        trace = telemetry.get_telemetry().trace_id
        return json.dumps(series), records, trace
    finally:
        telemetry.reset()


@pytest.mark.parametrize("uarch", UARCHES)
def test_serial_pool_and_fastpath_off_identical(uarch, monkeypatch):
    """Acceptance: serial vs ``--jobs 4`` vs fast-path-off produce
    byte-identical per-window series."""
    monkeypatch.setenv("REPRO_WINDOW", "8")
    corpus = build_application("openblas", count=33, seed=7)
    serial, _, _ = _window_series(corpus, uarch, 7, "win",
                                  jobs=1, shard_size=8)
    pooled, _, _ = _window_series(corpus, uarch, 7, "win",
                                  jobs=4, shard_size=4)
    with envvars.forced("REPRO_NO_FASTPATH", True):
        slow, _, _ = _window_series(corpus, uarch, 7, "win",
                                    jobs=1, shard_size=8)
    assert serial == pooled
    assert serial == slow
    windows = json.loads(serial)
    assert [w["start"] for w in windows] == list(range(0, 33, 8))
    assert sum(w["blocks"] for w in windows) == 33


def test_window_series_stable_under_chaos(monkeypatch):
    """Worker crashes are rescued without moving a window boundary or
    perturbing a single windowed statistic."""
    monkeypatch.setenv("REPRO_WINDOW", "8")
    corpus = build_application("llvm", count=22, seed=3)
    clean, _, _ = _window_series(corpus, "haswell", 3, "win",
                                 jobs=2, shard_size=4)
    monkeypatch.setenv("REPRO_CHAOS", "11:worker_crash=0.5")
    chaotic, _, _ = _window_series(corpus, "haswell", 3, "win",
                                   jobs=2, shard_size=4)
    monkeypatch.delenv("REPRO_CHAOS")
    assert clean == chaotic


def test_worker_spans_stitched_into_parent_trace(monkeypatch):
    """Acceptance: pooled runs land worker spans in the parent trace,
    stamped with the run's trace ID."""
    monkeypatch.setenv("REPRO_WINDOW", "8")
    corpus = build_application("llvm", count=22, seed=3)
    _, records, trace = _window_series(corpus, "haswell", 3, "win",
                                       jobs=2, shard_size=4)
    assert trace is not None
    worker_spans = [r for r in records
                    if r.get("kind") == "span"
                    and r.get("name") == "worker.shard"]
    assert len(worker_spans) >= 2  # one per shard, several shards
    assert all(r.get("trace") == trace for r in worker_spans)
    assert all("worker" in r and "shard" in r for r in worker_spans)
    shards = [r["shard"] for r in worker_spans]
    assert shards == sorted(shards)  # merged in shard-index order

    events = {r.get("name") for r in records
              if r.get("kind") == "event"}
    assert {"run.start", "run.end", "window"} <= events
    # Worker summary events are folded into counters, not re-emitted.
    assert "worker.shard_summary" not in events


def test_windowed_series_survive_into_run_report(monkeypatch):
    monkeypatch.setenv("REPRO_WINDOW", "8")
    corpus = build_application("llvm", count=22, seed=3)
    telemetry.reset()
    telemetry.enable()
    try:
        profile_corpus_sharded(corpus, "haswell", seed=3, jobs=1,
                               run_label="reported")
        report = telemetry.build_run_report(telemetry.registry(),
                                            name="windows")
        series = report["windows"]["reported"]
        assert len(series) == 3  # 22 blocks / 8-block windows
        assert {"p50", "p95", "p99", "mean", "jitter", "sim_rate"} \
            <= set(series[0])
    finally:
        telemetry.reset()
