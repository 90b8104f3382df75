"""End-to-end benchmark: the paper's Table V pipeline and the service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table5-cold --seed 0 \\
        --seconds 20 --trace 0

Workloads (README.md says why each exists and what it leaves out):

``table5-cold``
    ``Experiment.validation`` for ivybridge, haswell and skylake on the
    application corpus at scale 0.001, ``jobs=1``, empty cache.
``table5-grown-pooled``
    The same at scale 0.00125 with ``jobs=2``, on a store filled
    (untimed) with the scale-0.001 corpus's measurements.
``serve-open-loop``
    A ``repro serve --jobs 1`` daemon on a Unix socket, sent haswell
    requests on a fixed schedule over at most two connections.

Every pipeline pass and every daemon is a fresh interpreter with
``REPRO_TELEMETRY=0``, a fresh cache and state directory under
``.perfbench_work/`` and no inherited ``REPRO_*`` switch.  Human-readable
lines go first; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 1``
reports the per-layer table (``tracing.py``) instead of the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (CHILD_TIMEOUT_S, HERE, ROOT, SETUP_SAMPLES, SRC,
                    UARCHES, WORK_ROOT, BenchError, child_env,
                    percentile, run_child)

TABLE5 = {
    "table5-cold": {"scale": 0.001, "jobs": 1, "fill_scale": None},
    "table5-grown-pooled": {"scale": 0.00125, "jobs": 2,
                            "fill_scale": 0.001},
}
WORKLOADS = tuple(TABLE5) + ("serve-open-loop",)

#: The end-to-end metrics of BENCHMARK.json, in the result line.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
              ("blocks_per_s", "blocks/s"), ("latency_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))
#: Printed on every run but not in the result line: serve's p95 moved
#: by 0.2-0.35 of its median between runs on the host it was tuned on,
#: more than the largest bound a gated metric may have (0.25).
PRINTED_ONLY = (("latency_p95_ms", "ms"),)


def setup_probe(env: Dict[str, str]) -> float:
    """Spawn an interpreter that only does the pipeline's set-up."""
    spawned = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c",
         "import time, repro.eval.pipeline; print(time.monotonic())"],
        env=env, cwd=str(ROOT), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip()) - spawned


# ---------------------------------------------------------------------------
# Table V workloads


def table5_pass(spec: Dict, seed: int, work: Path, cache: Path,
                index: int, trace: bool) -> Dict:
    out = work / f"pass-{index}.json"
    argv = [sys.executable, str(HERE / "table5_pass.py"),
            "--scale", str(spec["scale"]),
            "--seed", str(seed), "--jobs", str(spec["jobs"]),
            "--out", str(out)]
    if trace:
        argv.append("--trace")
    child = run_child(argv, child_env(work, cache))
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - child["spawned"]
    result["wall_s"] = result["end"] - result["start"]
    result["peak_rss_mb"] = child["peak_rss_mb"]
    return result


def run_table5(name: str, seed: int, seconds: float, trace: bool,
               work: Path, expected: Dict) -> Dict:
    spec = TABLE5[name]
    filled = None
    if spec["fill_scale"] is not None:
        filled = work / "filled"
        run_child([sys.executable, str(HERE / "table5_pass.py"),
                   "--scale", str(spec["fill_scale"]),
                   "--seed", str(seed), "--jobs", str(spec["jobs"]),
                   "--fill", "--out", str(work / "fill.json")],
                  child_env(work, filled))

    passes: List[Dict] = []
    timed = 0.0
    # A traced run makes one untraced pass, then one traced pass.
    while not passes or (trace and len(passes) < 2) \
            or (not trace and timed < seconds):
        cache = work / f"cache-{len(passes)}"
        if filled is not None:
            shutil.copytree(filled, cache)
        result = table5_pass(spec, seed, work, cache, len(passes),
                             trace and len(passes) == 1)
        shutil.rmtree(cache, ignore_errors=True)
        timed += result["wall_s"]
        passes.append(result)
        print(f"  pass {len(passes)}: wall {result['wall_s']:.3f} s, "
              f"setup {result['setup_s']:.3f} s, "
              f"peak RSS {result['peak_rss_mb']:.1f} MB, "
              f"digest {result['digest']}, Ithemal error "
              + ", ".join(f"{u} {result['ithemal_error'][u]:.4f}"
                          for u in UARCHES), flush=True)

    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(child_env(work)))

    # -- output check --------------------------------------------------
    recorded = expected.get(name, {}).get(str(seed))
    problems: List[str] = []
    failed = 0
    blocks = passes[0]["blocks"]
    for number, result in enumerate(passes, 1):
        bad = list(result["problems"])
        if result["digest"] != passes[0]["digest"]:
            bad.append("digest differs from pass 1")
        if recorded is not None and result["digests"] != recorded:
            bad.append(f"digest {result['digests']} != recorded "
                       f"{recorded}")
        problems.extend(f"pass {number}: {p}" for p in bad)
        failed += blocks * len(UARCHES) if bad else result["failures"]
    if recorded is None:
        print(f"  no digest recorded for seed {seed}: checked "
              "determinism across passes and invariants only")

    walls = [p["wall_s"] for p in passes]
    latencies = [w * 1000.0 for w in walls]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "blocks_per_s": (statistics.median(blocks * len(UARCHES) / w
                                           for w in walls), len(walls)),
        "latency_p50_ms": (percentile(latencies, 0.50), len(latencies)),
        "latency_p95_ms": (percentile(latencies, 0.95), len(latencies)),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes),
                        len(passes)),
    }
    layers = None
    if trace:
        layers = dict(passes[1]["layers"])
        layers["trace_overhead_share"] = \
            passes[1]["wall_s"] / passes[0]["wall_s"] - 1.0
    return {"metrics": metrics, "layers": layers,
            "digests": passes[0]["digests"],
            "attempted": blocks * len(UARCHES) * len(passes),
            "failed": failed, "problems": problems,
            "notes": ["latency = one pass (all three Table V rows), "
                      "so latency_p50_ms is wall_s in ms",
                      f"{blocks} corpus blocks x {len(UARCHES)} uarches "
                      f"per pass"]}


# ---------------------------------------------------------------------------
# entry point


def report(name: str, seed: int, outcome: Dict, trace: bool) -> Dict:
    """Print the human-readable table and build the JSON result."""
    if trace:
        import tracing
        layers = outcome["layers"]
        metrics = {key: {"value": float(layers.get(key, 0.0)),
                         "unit": tracing.unit_of(key)}
                   for key in tracing.LAYER_METRICS}
        print(f"per-layer time budget ({name}, seed {seed}):")
        for key in tracing.LAYER_METRICS:
            print(f"  {key:32s} {metrics[key]['value']:14.6f} "
                  f"{metrics[key]['unit']}")
        print(f"  root spans {layers['root_s']:.6f} s + unattributed "
              f"{layers['unattributed_s']:.6f} s = traced wall "
              f"{layers['root_s'] + layers['unattributed_s']:.6f} s "
              f"({int(layers['spans'])} spans)")
    else:
        metrics = {}
        print(f"end-to-end metrics ({name}, seed {seed}):")
        for key, unit in END_TO_END + PRINTED_ONLY:
            value, samples = outcome["metrics"][key]
            gated = (key, unit) in END_TO_END
            if gated:
                metrics[key] = {"value": float(value), "unit": unit}
            print(f"  {key:16s} {value:14.6f} {unit:9s} (n={samples})"
                  + ("" if gated else "  printed only, not gated"))
    for note in outcome["notes"]:
        print(f"  note: {note}")
    attempted = outcome["attempted"]
    failed = outcome["failed"]
    print(f"  error_share {failed / attempted:.6f} "
          f"({failed} failed of {attempted} attempted)")
    for problem in outcome["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not outcome["problems"] and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # This process builds the serve corpus and the batch reference, so
    # it runs isolated like its children.
    env = child_env(work, work / "cache-reference")
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    # Compile once, untimed, so the first pass's set-up does not pay
    # for writing bytecode caches.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], check=True, stdout=subprocess.DEVNULL)
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if args.workload in TABLE5:
            outcome = run_table5(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work, expected)
        else:
            import serve_load
            outcome = serve_load.run(args.seed, args.seconds,
                                     bool(args.trace), work)
        result = report(args.workload, args.seed, outcome,
                        bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
