"""Streamed pipeline: constant peak RSS, identical bytes.

The generator-fed engine's contract has two legs and this bench
enforces both on real subprocess measurements.  A process's RSS
high-water mark never goes down, so every configuration gets its own
interpreter, which reads its own peak through
``repro.telemetry.resources.peak_rss_kb`` (``VmHWM`` where that
exists: on Linux ``ru_maxrss`` carries over the forking parent's
high-water mark across ``exec``, so under pytest it would report the
test runner's RSS, not the measured interpreter's).

* **Memory** — generator-fed peak RSS stays flat (within
  ``RSS_RATIO``, 1.2x) while the corpus grows ``GROWTH``x (10x).  The
  materialised run's RSS at both scales is reported alongside for
  context: it holds the whole corpus, so it grows.
* **Identity** — the generator-fed ``profile_corpus_streamed`` run's
  merged profile serialises to the exact bytes of the materialised
  ``profile_corpus_sharded`` run over the same corpus, at both scales
  (CRC-compared across the subprocess boundary).

Speed is not measured here: both entry points drive the same engine,
and the end-to-end benchmark (``perfbench/``) times the real pipeline.

Results land in ``reports/streaming.{txt,json}`` plus a repo-root
``BENCH_streaming.json`` for the dashboard.
"""

import json
import os
import subprocess
import sys

from repro.eval.reporting import format_table

from conftest import REPORT_DIR

ROOT = os.path.join(os.path.dirname(__file__), "..")
ROOT_JSON = os.path.join(ROOT, "BENCH_streaming.json")

UARCH = os.environ.get("REPRO_BENCH_STREAM_UARCH", "haswell")
SCALE = float(os.environ.get("REPRO_BENCH_STREAM_SCALE", "0.001"))
GROWTH = 10
RSS_RATIO = 1.2

#: One measured configuration per interpreter: profile the corpus
#: (materialised or generator-fed), print blocks / wall seconds / peak
#: RSS / the CRC of the canonical profile bytes as JSON on stdout.
_DRIVER = r"""
import json, sys, time, zlib
mode, uarch, scale, seed = (sys.argv[1], sys.argv[2],
                            float(sys.argv[3]), int(sys.argv[4]))
from repro.corpus.dataset import build_corpus
from repro.corpus.streaming import iter_corpus
from repro.parallel import (profile_corpus_sharded,
                            profile_corpus_streamed)
from repro.telemetry.resources import peak_rss_kb
start = time.perf_counter()
if mode == "sharded":
    corpus = build_corpus(scale=scale, seed=seed)
    profile = profile_corpus_sharded(corpus, uarch, seed=seed, jobs=1)
else:
    profile = profile_corpus_streamed(
        iter_corpus(scale=scale, seed=seed), uarch, seed=seed, jobs=1)
elapsed = time.perf_counter() - start
peak = peak_rss_kb()
payload = json.dumps({"throughputs": profile.throughputs,
                      "funnel": profile.funnel})
print(json.dumps({"blocks": profile.funnel["total"],
                  "seconds": elapsed, "peak_rss_kb": int(peak),
                  "crc": zlib.crc32(payload.encode())}))
"""


def _measure(mode: str, scale: float, seed: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, UARCH, repr(scale),
         str(seed)],
        env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_streaming(report):
    big = SCALE * GROWTH
    sharded_small = _measure("sharded", SCALE)
    stream_small = _measure("stream", SCALE)
    stream_big = _measure("stream", big)
    sharded_big = _measure("sharded", big)

    # Identity across the subprocess boundary, both scales.
    assert stream_small["crc"] == sharded_small["crc"], \
        "generator-fed bytes diverged from materialised at the base scale"
    assert stream_big["crc"] == sharded_big["crc"], \
        "generator-fed bytes diverged from materialised at the grown scale"

    rss_ratio = stream_big["peak_rss_kb"] / stream_small["peak_rss_kb"]

    def row(name, m, gate="-"):
        return (name, m["blocks"], round(m["seconds"], 3),
                round(m["peak_rss_kb"] / 1024, 1), gate)

    rows = [
        row(f"sharded {SCALE:g}", sharded_small, "context"),
        row(f"stream {SCALE:g}", stream_small, "baseline"),
        row(f"sharded {big:g}", sharded_big, "context"),
        row(f"stream {big:g}", stream_big,
            f"rss {rss_ratio:.2f}x (<= {RSS_RATIO}x)"),
    ]
    title = (f"{UARCH}, serial, one run each at scale {SCALE:g}; "
             f"corpus grows {GROWTH}x, generator-fed peak RSS "
             f"{rss_ratio:.2f}x; bytes identical at both scales")
    report("streaming", format_table(
        ["run", "blocks", "seconds", "peak rss MiB", "gate"], rows,
        title=title))

    doc = {"uarch": UARCH, "scale": SCALE, "growth": GROWTH,
           "identical_outputs": True,
           "rss_ratio": rss_ratio, "rss_ratio_bound": RSS_RATIO,
           "stream": {"blocks": stream_small["blocks"],
                      "stream_s": stream_small["seconds"],
                      "peak_rss_kb": stream_small["peak_rss_kb"],
                      "grown_blocks": stream_big["blocks"],
                      "grown_peak_rss_kb": stream_big["peak_rss_kb"],
                      "grown_sharded_peak_rss_kb":
                          sharded_big["peak_rss_kb"]}}
    for path in (os.path.join(REPORT_DIR, "streaming.json"),
                 ROOT_JSON):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    assert rss_ratio <= RSS_RATIO, (
        f"generator-fed peak RSS grew {rss_ratio:.2f}x on a {GROWTH}x "
        f"corpus — the constant-memory contract regressed "
        f"(epoch resets or the prefetch bound broke)")
