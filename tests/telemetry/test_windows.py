"""Unit tests for the sliding-window aggregation engine."""

import json
import random

import pytest

from repro import telemetry
from repro.telemetry import window
from repro.telemetry.window import WindowAggregator


def _feed(agg, pairs):
    for index, value in pairs:
        agg.observe(index, value)
    return agg.finish()


class TestBoundaries:
    def test_windows_keyed_to_block_index(self):
        agg = WindowAggregator("t", total=10, window_size=4)
        series = _feed(agg, [(i, float(i)) for i in range(10)])
        assert [w["window"] for w in series] == [0, 1, 2]
        assert [w["start"] for w in series] == [0, 4, 8]
        assert [w["blocks"] for w in series] == [4, 4, 2]

    def test_partial_last_window_finalises_on_completeness(self):
        seen = []
        agg = WindowAggregator("t", total=6, window_size=4,
                               on_window=lambda s: seen.append(s))
        for i in (4, 5):  # the 2-block tail window
            agg.observe(i, 1.0)
        assert [w["window"] for w in seen] == [1]
        assert seen[0]["blocks"] == 2

    def test_out_of_range_index_rejected(self):
        agg = WindowAggregator("t", total=4)
        with pytest.raises(IndexError):
            agg.observe(4, 1.0)
        with pytest.raises(IndexError):
            agg.observe(-1, 1.0)

    def test_env_var_window_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_WINDOW", "7")
        assert WindowAggregator("t", total=20).window_size == 7
        monkeypatch.delenv("REPRO_WINDOW")
        assert WindowAggregator("t", total=20).window_size == 64


class TestOrderIndependence:
    def test_shuffled_feed_identical_summaries(self):
        rng = random.Random(5)
        pairs = [(i, rng.uniform(1.0, 40.0) if i % 7 else None)
                 for i in range(100)]
        ordered = _feed(
            WindowAggregator("t", total=100, window_size=16), pairs)
        for trial in range(3):
            shuffled = list(pairs)
            random.Random(trial).shuffle(shuffled)
            got = _feed(WindowAggregator("t", total=100,
                                         window_size=16), shuffled)
            assert json.dumps(got) == json.dumps(ordered)

    def test_shuffled_feed_with_small_reservoir(self):
        pairs = [(i, float(i % 13)) for i in range(64)]
        kwargs = dict(total=64, window_size=32, reservoir=8)
        ordered = _feed(WindowAggregator("t", **kwargs), pairs)
        shuffled = list(pairs)
        random.Random(9).shuffle(shuffled)
        got = _feed(WindowAggregator("t", **kwargs), shuffled)
        assert json.dumps(got) == json.dumps(ordered)
        assert all(w["sampled"] == 8 for w in got)

    def test_duplicate_observations_idempotent(self):
        agg = WindowAggregator("t", total=4, window_size=4)
        agg.observe(0, 5.0)
        agg.observe(0, 99.0)  # ignored: index already seen
        series = _feed(agg, [(1, 5.0), (2, 5.0), (3, 5.0)])
        assert series[0]["blocks"] == 4
        assert series[0]["p95"] == 5.0


class TestStatistics:
    def test_percentiles_mean_jitter(self):
        agg = WindowAggregator("t", total=4, window_size=4)
        series = _feed(agg, [(0, 2.0), (1, 4.0), (2, 6.0), (3, 8.0)])
        (w,) = series
        assert w["p50"] == 6.0  # nearest-rank on [2,4,6,8]
        assert w["p95"] == 8.0
        assert w["mean"] == 5.0
        assert w["jitter"] == pytest.approx(2.23606797749979)

    def test_sim_rate_is_accepted_per_kilocycle(self):
        agg = WindowAggregator("t", total=4, window_size=4)
        series = _feed(agg, [(0, 100.0), (1, 100.0), (2, 100.0),
                             (3, None)])
        (w,) = series
        assert w["accepted"] == 3
        assert w["sim_rate"] == pytest.approx(3 / 300.0 * 1000.0)

    def test_all_dropped_window_has_null_stats(self):
        agg = WindowAggregator("t", total=2, window_size=2)
        (w,) = _feed(agg, [(0, None), (1, None)])
        assert w["blocks"] == 2 and w["accepted"] == 0
        assert w["p50"] is None and w["sim_rate"] is None


class TestLedger:
    def test_deposit_and_reset(self):
        window.deposit_run("run-a", [{"window": 0}])
        assert "run-a" in window.runs()
        telemetry.reset()  # reset hook wipes the ledger
        assert window.runs() == {}
