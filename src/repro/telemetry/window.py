"""Sliding-window aggregation: per-window percentiles, jitter, rate.

The live layer's numeric core.  A :class:`WindowAggregator` cuts an
observed series into fixed windows keyed to **block index** — never
wall clock — so the windowed output is a pure function of the corpus
and the simulator: byte-stable across serial, pooled (`--jobs N`) and
fast-path-off runs, and therefore differential-testable exactly like
the profiles themselves (``tests/telemetry/test_window_determinism``).

Each window produces ``p50``/``p95``/``p99``, ``mean``, ``jitter``
(population standard deviation) and ``sim_rate`` — accepted blocks per
thousand *simulated* cycles, the deterministic analogue of blocks/s
(NeuroScalar reports simulation throughput as a first-class metric;
wall-clock blocks/s lives in heartbeat events instead, where
non-determinism is expected).

Determinism under out-of-order arrival
--------------------------------------
Pooled runs complete shards in nondeterministic order, and one window
can span several shards.  Every per-window statistic is therefore
computed from an **arrival-order-independent** state:

* retained samples are chosen by a keyed hash of ``(label, window,
  index)`` — the *set* kept is a function of the indices alone, never
  of arrival order (a deterministic bottom-k reservoir);
* sums are computed at finalisation over samples sorted by block
  index, so float accumulation order is fixed;
* a window finalises exactly when all of its block indices have been
  observed — worker retries or shard re-ordering cannot move a window
  boundary.

Memory stays fixed: at most ``reservoir`` samples per window are held
(with the default window size every value is retained, making the
percentiles exact), and a finalised window's samples are dropped.
"""

from __future__ import annotations

import heapq
import math
import zlib
from typing import Dict, List, Optional

from repro import envvars
from repro.telemetry import core

__all__ = ["WindowAggregator", "ledger", "deposit_run", "runs",
           "DEFAULT_RESERVOIR"]

#: Maximum samples retained per window.  >= the default window size
#: (``REPRO_WINDOW``, 64 blocks), so windows are exact unless the user
#: asks for very wide ones.
DEFAULT_RESERVOIR = 1024


def _sample_key(label: str, window: int, index: int) -> int:
    """Deterministic per-sample priority for the bottom-k reservoir."""
    return zlib.crc32(f"{label}|{window}|{index}".encode())


class _Window:
    """One window's in-flight state (arrival-order independent)."""

    __slots__ = ("seen", "accepted", "heap")

    def __init__(self):
        self.seen = 0
        self.accepted = 0
        #: Max-heap (negated keys) of (−key, index, value): the kept
        #: set is the bottom-k by keyed hash, identical whatever order
        #: samples arrived in.
        self.heap: List = []


class WindowAggregator:
    """Aggregates one observed series into deterministic windows.

    ``total`` (the corpus size) is known up front, so every window —
    including the final partial one — knows exactly how many block
    indices it must see before it can finalise.  ``total=None`` means
    the series length is unknown until it ends (a streamed run over a
    lazily generated corpus): every window then expects a full
    ``window_size`` indices and the final partial window finalises at
    :meth:`finish` — given the same observations the summaries are
    byte-identical to a known-total run's.

    ``observe(index, value)`` accepts ``value=None`` for blocks that
    produced no measurement (dropped blocks): they advance the window
    toward completion but contribute no sample.
    """

    def __init__(self, label: str, total: Optional[int],
                 window_size: Optional[int] = None,
                 reservoir: int = DEFAULT_RESERVOIR,
                 on_window=None):
        if total is not None and total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.label = label
        self.total = total
        self.window_size = window_size or envvars.get("REPRO_WINDOW")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.reservoir = max(1, reservoir)
        self._on_window = on_window
        self._partial: Dict[int, _Window] = {}
        self._seen: Dict[int, set] = {}
        self.summaries: Dict[int, Dict] = {}

    # ------------------------------------------------------------------

    def _expected(self, window: int) -> int:
        if self.total is None:
            return self.window_size
        start = window * self.window_size
        return min(self.window_size, self.total - start)

    def observe(self, index: int, value: Optional[float]) -> None:
        """Record block ``index``'s measurement (or its absence)."""
        if index < 0 or (self.total is not None
                         and index >= self.total):
            raise IndexError(f"block index {index} outside corpus "
                             f"of {self.total}")
        window = index // self.window_size
        if window in self.summaries:
            return  # duplicate feed of a finalised window
        state = self._partial.get(window)
        if state is None:
            state = self._partial[window] = _Window()
            self._seen[window] = set()
        if index in self._seen[window]:
            return  # duplicate observation (idempotent by index)
        self._seen[window].add(index)
        state.seen += 1
        if value is not None:
            state.accepted += 1
            key = _sample_key(self.label, window, index)
            entry = (-key, index, value)
            if len(state.heap) < self.reservoir:
                heapq.heappush(state.heap, entry)
            elif -state.heap[0][0] > key:
                heapq.heapreplace(state.heap, entry)
        if state.seen == self._expected(window):
            self._finalize(window, state)

    def _finalize(self, window: int, state: _Window) -> None:
        summary = self._summarize(window, state)
        self.summaries[window] = summary
        del self._partial[window]
        del self._seen[window]
        if self._on_window is not None:
            self._on_window(summary)

    def _summarize(self, window: int, state: _Window) -> Dict:
        # Sort retained samples by block index so every float
        # accumulation below has a fixed order.
        samples = sorted((index, value)
                         for _, index, value in state.heap)
        values = [value for _, value in samples]
        summary: Dict = {
            "window": window,
            "start": window * self.window_size,
            "blocks": state.seen,
            "accepted": state.accepted,
            "sampled": len(values),
        }
        if not values:
            summary.update({"p50": None, "p95": None, "p99": None,
                            "mean": None, "jitter": None,
                            "sim_rate": None})
            return summary
        ordered = sorted(values)
        n = len(ordered)

        def pct(q: float) -> float:
            rank = max(0, min(n - 1, int(round(q / 100.0 * (n - 1)))))
            return ordered[rank]

        total = 0.0
        for value in values:
            total += value
        mean = total / n
        var = 0.0
        for value in values:
            var += (value - mean) ** 2
        summary.update({
            "p50": pct(50), "p95": pct(95), "p99": pct(99),
            "mean": mean,
            "jitter": math.sqrt(var / n),
            # Accepted blocks per thousand simulated cycles: the
            # deterministic throughput metric (values are
            # cycles/iteration, so the rate is corpus-shape dependent
            # but machine-independent).
            "sim_rate": (state.accepted / total * 1000.0)
            if total > 0 else None,
        })
        return summary

    # ------------------------------------------------------------------

    def finish(self) -> List[Dict]:
        """Finalise any straggler windows and return the ordered series.

        With a known ``total`` and a correct feed every window already
        finalised on its completeness condition; stragglers mean some
        indices were never observed (a defensive path) — except in
        unknown-total mode, where the final partial window *must*
        finalise here because only the end of the stream reveals it
        was partial.  Either way they finalise with whatever arrived.
        """
        for window in sorted(self._partial):
            self._finalize(window, self._partial[window])
        return [self.summaries[w] for w in sorted(self.summaries)]


# ---------------------------------------------------------------------------
# The per-process window ledger (what run reports read)
# ---------------------------------------------------------------------------

#: Finalised window series per run label, in completion order.
_RUNS: Dict[str, List[Dict]] = {}


def deposit_run(label: str, series: List[Dict]) -> None:
    """Record a finished run's window series for the run report."""
    _RUNS[label] = list(series)


def runs() -> Dict[str, List[Dict]]:
    """All deposited window series, keyed by run label."""
    return _RUNS


def ledger() -> Dict[str, List[Dict]]:  # pragma: no cover - alias
    return _RUNS


def _reset() -> None:
    _RUNS.clear()


core.register_reset_hook(_reset)
