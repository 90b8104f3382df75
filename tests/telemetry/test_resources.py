"""Peak-RSS gauge and the report's ``resources`` section."""

import json
import os
import subprocess
import sys

from repro.corpus.dataset import build_application
from repro.parallel import profile_corpus_streamed
from repro.telemetry import (build_run_report, enable,
                             peak_rss_kb, registry,
                             render_summary, reset,
                             sample_peak_rss)
from repro.telemetry.resources import resources_section


class TestPeakRss:
    def test_positive_and_monotone(self):
        first = peak_rss_kb()
        assert first is not None and first > 0
        ballast = [bytes(1024) for _ in range(64)]
        assert peak_rss_kb() >= first
        del ballast

    def test_sample_records_gauge(self):
        reset()
        enable()
        peak = sample_peak_rss()
        snap = registry().snapshot()
        assert snap["gauges"]["resources.peak_rss_kb"] == peak


    def test_child_reports_its_own_peak_not_its_parents(self):
        """``ru_maxrss`` carries a parent's high-water mark across
        ``exec``; a small child of a large parent must still report
        its own peak."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        child = ("from repro.telemetry.resources import peak_rss_kb; "
                 "print(peak_rss_kb())")
        parent = (
            "import subprocess, sys\n"
            "ballast = b'x' * (192 << 20)\n"
            f"out = subprocess.run([sys.executable, '-c', {child!r}],\n"
            "                      capture_output=True, text=True,\n"
            "                      check=True)\n"
            "print(out.stdout.strip())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", parent], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        child_kb = int(out.stdout.strip())
        assert 0 < child_kb < 128 * 1024


class TestResourcesSection:
    def test_always_carries_peak_rss(self):
        section = resources_section({})
        assert section["peak_rss_kb"] > 0
        assert "stream" not in section

    def test_stream_subsection_only_after_streamed_run(self):
        snap = {"counters": {"stream.submitted": 8, "stream.folded": 8},
                "gauges": {"stream.max_queue_depth": 3},
                "histograms": {"stream.queue_depth":
                               {"mean": 2.0, "p95": 3.0}}}
        section = resources_section(snap)
        assert section["stream"] == {
            "submitted": 8, "folded": 8, "max_queue_depth": 3,
            "queue_depth_mean": 2.0, "queue_depth_p95": 3.0}

    def test_streamed_run_populates_report(self):
        reset()
        enable()
        records = build_application("gzip", count=12, seed=1).records
        profile_corpus_streamed(iter(records), "haswell", seed=1,
                                jobs=1, shard_size=4)
        report = build_run_report(registry(), "stream-report-test")
        resources = report["resources"]
        assert resources["peak_rss_kb"] > 0
        assert resources["stream"]["folded"] == 3
        assert resources["stream"]["submitted"] == 3
        assert resources["stream"]["max_queue_depth"] >= 1
        summary = render_summary(report)
        assert "peak rss" in summary
        assert "streamed 3 shards" in summary
        json.dumps(report)  # report stays JSON-serialisable
        reset()
