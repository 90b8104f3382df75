"""The ``serve-open-loop`` workload (driven from ``run.py``).

One client process drives a ``repro serve --jobs 1`` daemon over a
Unix socket.  Requests go out on a fixed schedule (open loop) at
:data:`RATE` per second, so the schedule does not depend on how fast
the daemon answers.  The daemon sustained 59-69 requests/s closed-loop
on this mix (2-core x86-64 VM); at 30/s (half of that) the host's
speed swings pushed p50 latency between 21 and 36 ms from run to run,
so the rate sits at about a third of capacity.  At most
:data:`CONNECTIONS` requests are in flight, and each request's latency
runs from when it was *due*, so a stall also charges the requests
queued behind it.

Each request carries :data:`BLOCKS_PER_REQUEST` haswell blocks of the
application corpus at :data:`SCALE`.  Every :data:`REPEAT_EVERY`-th
request repeats an earlier request exactly (the request-journal memo
answers it); the others carry their share of the corpus's blocks,
each sent fresh once (the daemon simulates and stores them), and fill
up with blocks earlier requests already had measured (shard-cache
reads).  The corpus is
fixed (``CORPUS_SEED``); the seed picks which blocks go into which
request and which requests repeat.  The daemon only sees the requests.

Every answer is checked against a batch ``profile_corpus_sharded``
measurement of the same blocks, made after the run.
"""

from __future__ import annotations

import json
import os
import queue
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import common as bench

RATE = 20.0
CONNECTIONS = 2
BLOCKS_PER_REQUEST = 8
#: Scale of the application corpus whose blocks are sent fresh.
SCALE = 0.002
REPEAT_EVERY = 5
#: Blocks become reusable once the request that carried them was due
#: this many slots earlier (it has usually been answered by then).
REUSE_LAG = 4
MIN_REQUESTS = 400
UARCH = "haswell"
#: Set-up probe, answered before the workload starts and never part of it.
PROBE_BLOCK = "xchg %rax, %rax"
SOCKET = "s.sock"
STOP_TIMEOUT_S = 60


def corpus_texts() -> List[str]:
    """Distinct block texts of the serve corpus, minus the probe."""
    from repro.corpus.dataset import build_corpus
    texts = []
    seen = {PROBE_BLOCK}
    for record in build_corpus(scale=SCALE, seed=bench.CORPUS_SEED):
        text = record.block.text()
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def plan_requests(seed: int, count: int) -> List[List[str]]:
    """The request list: fresh blocks, reused blocks, exact repeats.

    Every corpus block is sent fresh exactly once, spread evenly over
    the requests that are not repeats, so each seed simulates the same
    blocks (a few of them take 100x the median) and only their order
    and company change.
    """
    rng = random.Random(seed)
    fresh = corpus_texts()
    rng.shuffle(fresh)
    repeats = {i for i in range(count)
               if i % REPEAT_EVERY == REPEAT_EVERY - 1 and i > REUSE_LAG}
    slots = [i for i in range(count) if i not in repeats]
    quota = {slot: len(fresh[n::len(slots)])
             for n, slot in enumerate(slots)}
    requests: List[List[str]] = []
    reusable: List[str] = []
    reusable_set = set()
    for i in range(count):
        if i >= REUSE_LAG:
            for text in requests[i - REUSE_LAG]:
                if text not in reusable_set:
                    reusable_set.add(text)
                    reusable.append(text)
        if i in repeats:
            requests.append(list(requests[rng.randrange(i - REUSE_LAG)]))
            continue
        blocks = [fresh.pop() for _ in range(quota[i])]
        old = min(BLOCKS_PER_REQUEST - len(blocks), len(reusable))
        blocks += rng.sample(reusable, max(0, old))
        rng.shuffle(blocks)
        requests.append(blocks)
    return requests


class Daemon:
    """One ``repro serve`` process with its own state directory."""

    def __init__(self, work: Path, name: str,
                 window: Optional[int] = None,
                 trace_out: Optional[Path] = None):
        self.dir = work / name
        self.dir.mkdir(parents=True)
        env = bench.child_env(work, self.dir / "cache")
        if window is not None:
            # One metrics window over the whole run, so /v1/stats
            # reports the run's daemon-side latency percentiles.
            env["REPRO_SERVE_WINDOW"] = str(window)
        argv = [sys.executable, str(bench.HERE / "serve_daemon.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", "--socket", SOCKET, "--state", "state",
                 "--jobs", "1"]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(argv, env=env, cwd=str(self.dir),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL,
                                     start_new_session=True)
        self.rss = bench.TreeRss(self.proc.pid)
        self.rss.start()
        socket_path = str(self.dir / SOCKET)
        relative = os.path.relpath(socket_path)
        from repro.serve.client import ServeClient
        self.socket = min(socket_path, relative, key=len)
        self.client = ServeClient(socket_path=self.socket, timeout=60.0)

    def ready(self) -> float:
        """Wait for health, answer the probe; return the set-up time."""
        from repro.serve.client import ServeClientError
        try:
            self.client.wait_ready(deadline_s=bench.CHILD_TIMEOUT_S,
                                   interval_s=0.01)
            probe = self.client.profile([PROBE_BLOCK], uarch=UARCH)
        except ServeClientError as exc:
            raise bench.BenchError(f"daemon did not start: {exc}")
        if probe.status != 200:
            raise bench.BenchError(f"probe answered {probe.status}")
        return time.monotonic() - self.spawned

    def stop(self) -> float:
        """SIGTERM (graceful drain), wait; return the tree's peak MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            bench.stop_group(self.proc)
            code = None
        peak = self.rss.stop()
        if code != 0:
            raise bench.BenchError(f"daemon exited with {code}")
        return peak


def drive(daemon: Daemon, requests: List[List[str]]) -> Dict:
    """Send the schedule; return per-request records and timings."""
    from repro.serve.client import ServeClientError
    work: "queue.Queue" = queue.Queue()
    records: List[Optional[tuple]] = [None] * len(requests)

    def sender() -> None:
        while True:
            item = work.get()
            if item is None:
                return
            index, due = item
            try:
                response = daemon.client.profile(requests[index],
                                                 uarch=UARCH)
                status, body = response.status, response.body
            except ServeClientError as exc:
                status, body = None, {"error": str(exc)}
            records[index] = (due, time.monotonic(), status, body)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    late = []
    start = time.monotonic() + 0.05
    for index in range(len(requests)):
        due = start + index / RATE
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        late.append(time.monotonic() - due)
        work.put((index, due))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=STOP_TIMEOUT_S)
        if thread.is_alive():
            raise bench.BenchError("a request never finished")
    end = max(r[1] for r in records)
    return {"records": records, "late": late, "start": start,
            "end": end,
            "client_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def batch_reference(requests: List[List[str]]) -> Dict[str, Optional[float]]:
    """Measure every distinct served block with the batch engine."""
    from repro.corpus.dataset import BlockRecord, Corpus
    from repro.isa.parser import parse_block
    from repro.parallel import profile_corpus_sharded
    texts = sorted({text for blocks in requests for text in blocks})
    records = [BlockRecord(block=parse_block(text, source="serve"),
                           application="serve", frequency=1,
                           block_id=i) for i, text in enumerate(texts)]
    profile = profile_corpus_sharded(Corpus(records), UARCH, seed=0,
                                     jobs=2)
    return {text: profile.throughputs.get(i)
            for i, text in enumerate(texts)}


def check_answer(blocks: List[str], body: Dict,
                 reference: Dict[str, Optional[float]]) -> Optional[str]:
    results = body.get("results")
    if not isinstance(results, list) or len(results) != len(blocks):
        return "wrong number of results"
    for text, result in zip(blocks, results):
        expected = reference[text]
        if expected is None:
            if result.get("status") != "dropped":
                return f"{text!r}: served {result}, batch dropped it"
        elif result.get("status") != "ok" \
                or result.get("throughput") != expected:
            return f"{text!r}: served {result}, batch {expected}"
    return None


def run(seed: int, seconds: float, trace: bool, work: Path) -> Dict:
    count = max(MIN_REQUESTS, int(round(RATE * seconds)))
    requests = plan_requests(seed, count)

    setups = []
    for number in range(bench.SETUP_SAMPLES - 1):
        extra = Daemon(work, f"setup-{number}")
        try:
            setups.append(extra.ready())
        finally:
            extra.stop()

    trace_out = work / "daemon-trace.json" if trace else None
    daemon = Daemon(work, "daemon", window=count + 1,
                    trace_out=trace_out)
    try:
        setups.append(daemon.ready())
        run_data = drive(daemon, requests)
        stats = daemon.client.stats().body
    finally:
        daemon_mb = daemon.stop()
    print(f"  {count} requests at {RATE:g}/s over {CONNECTIONS} "
          f"connections; daemon set-up {setups[-1]:.3f} s", flush=True)

    reference = batch_reference(requests)
    problems: List[str] = []
    failed = 0
    latencies = []
    ok_blocks = 0
    for index, (due, done, status, body) in enumerate(run_data["records"]):
        if status != 200:
            failed += 1
            problems.append(f"request {index}: status {status} {body}")
            continue
        wrong = check_answer(requests[index], body, reference)
        if wrong is not None:
            failed += 1
            problems.append(f"request {index}: {wrong}")
            continue
        latencies.append((done - due) * 1000.0)
        ok_blocks += len(requests[index])

    wall = run_data["end"] - run_data["start"]
    if not latencies:
        raise bench.BenchError("no request succeeded")
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall, 1),
        "blocks_per_s": (ok_blocks / wall, ok_blocks),
        "latency_p50_ms": (bench.percentile(latencies, 0.50),
                           len(latencies)),
        "latency_p95_ms": (bench.percentile(latencies, 0.95),
                           len(latencies)),
        "peak_rss_mb": (daemon_mb + run_data["client_rss_mb"], 1),
    }
    window = stats.get("window") or {}
    counters = stats.get("counters", {})
    late_ms = [value * 1000.0 for value in run_data["late"]]
    notes = [f"gen late p95 {bench.percentile(late_ms, 0.95):.3f} ms "
             f"(how late the generator sent; the run is valid while "
             f"this is small against the latencies)",
             f"daemon window: {json.dumps(window, sort_keys=True)}"]
    layers = None
    if trace:
        import tracing
        tracer = tracing.Tracer.load(json.loads(trace_out.read_text()))
        layers = tracer.summary(run_data["start"], run_data["end"])

        def share(hits: str, misses: str) -> float:
            h, m = counters.get(hits, 0), counters.get(misses, 0)
            return h / (h + m) if h + m else 0.0

        latency = window.get("latency_ms", {})
        layers.update({
            "serve.server_p50_ms": latency.get("p50", 0.0),
            "serve.server_p95_ms": latency.get("p95", 0.0),
            "serve.memo_hit_share": share("cache.serve.hits",
                                          "cache.serve.misses"),
            "serve.shard_hit_share": share("cache.shard.hits",
                                           "cache.shard.misses"),
            "serve.shed": window.get("shed", 0),
            "serve.deadline_misses": counters.get("serve.deadline_miss",
                                                  0),
            "serve.gen_late_p95_ms": bench.percentile(late_ms, 0.95),
            # No untraced daemon-side wall to compare against: estimate
            # from the calibrated cost of one wrapped call.
            "trace_overhead_share": layers["spans"]
            * tracing.span_cost_s() / wall,
        })
    return {"metrics": metrics, "layers": layers, "attempted": count,
            "failed": failed, "problems": problems, "notes": notes}
