"""Helpers shared by the workloads: isolation, children, statistics."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

UARCHES = ("ivybridge", "haswell", "skylake")
#: Set-up samples per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
#: Longest a single child may take before the run is abandoned.
CHILD_TIMEOUT_S = 150
#: Generator seed of every workload's corpus (the repository default).
#: ``--seed`` varies the order of the inputs, not their content:
#: corpora from different generator seeds differ by up to 35% in
#: instruction count, which moved Table V wall time by up to 20%
#: between seeds, more than any bound allows.
CORPUS_SEED = 0


def rotation(seed: int, blocks: int) -> int:
    """Where the seed starts the corpus: an even offset, so that every
    block keeps the parity that decides its Table V train/evaluation
    half, and every seed measures and predicts the same blocks."""
    return 2 * random.Random(seed).randrange(max(1, blocks // 2))


class BenchError(RuntimeError):
    """The benchmark could not run to the end; no result is printed."""


def child_env(work: Path, cache: Optional[Path] = None) -> Dict[str, str]:
    """The environment of every spawned pass or daemon.

    Inherited ``REPRO_*`` switches (chaos, no-fastpath, stream, triage,
    jobs, ...) are dropped, telemetry is off, and caches, reports and
    temp files stay under this run's work directory.
    ``PYTHONHASHSEED`` is dropped too, so hash-salted behaviour shows
    as it does for users.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONHASHSEED"}
    env.update({
        "PYTHONPATH": str(SRC),
        "REPRO_TELEMETRY": "0",
        "REPRO_CACHE": str(cache or work / "cache-unused"),
        "REPRO_REPORT_DIR": str(work / "reports"),
        "TMPDIR": str(work / "tmp"),
    })
    return env


def percentile(values: List[float], q: float) -> float:
    """Percentile with linear interpolation (q in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class TreeRss(threading.Thread):
    """Peak resident memory of a process and all its descendants.

    Polls ``/proc`` and sums the resident set (``VmRSS``) of every live
    process in the tree, so pool workers and the daemon count alongside
    their parent; the peak is the largest sum seen, or the root's own
    high-water mark (``VmHWM``) if that is larger.
    """

    #: Seconds between samples; a /proc scan costs about 1.5 ms.
    PERIOD_S = 0.2

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._stop_event = threading.Event()

    @staticmethod
    def _children() -> Dict[int, List[int]]:
        tree: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            tree.setdefault(ppid, []).append(int(entry))
        return tree

    @staticmethod
    def _status_kb(pid: int, field: str) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith(field):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def sample(self) -> None:
        tree = self._children()
        todo = [self.pid]
        total = 0
        while todo:
            pid = todo.pop()
            todo.extend(tree.get(pid, ()))
            total += self._status_kb(pid, "VmRSS:")
        root = self._status_kb(self.pid, "VmHWM:")
        self.peak_kb = max(self.peak_kb, total, root)

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.sample()
            self._stop_event.wait(self.PERIOD_S)

    def stop(self) -> float:
        """Stop polling; return the peak in MB."""
        self._stop_event.set()
        self.join()
        return self.peak_kb / 1024.0


def stop_group(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started; wait for the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(argv: List[str], env: Dict[str, str]) -> Dict:
    """Run a child to completion; return spawn time and tree RSS."""
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, env=env, cwd=str(ROOT),
                            stdout=subprocess.DEVNULL,
                            start_new_session=True)
    sampler = TreeRss(proc.pid)
    sampler.start()
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise BenchError(f"{Path(argv[1]).name} timed out")
    except BaseException:
        stop_group(proc)
        raise
    finally:
        peak_mb = sampler.stop()
    if code != 0:
        raise BenchError(f"{Path(argv[1]).name} exited with {code}")
    return {"spawned": spawned, "peak_rss_mb": peak_mb}
