"""Retry, deadline, and degradation policy.

Three knobs, all deterministic and all environment-overridable:

* :class:`RetryPolicy` — bounded attempts with deterministic jittered
  exponential backoff.  The jitter is hashed from ``(seed, key,
  attempt)``, never drawn from an RNG, so two runs of the same corpus
  back off identically and the differential suites stay byte-exact.
* **Step budget** — a per-``execute_block`` watchdog ceiling consulted
  by the executor once per unrolled block copy.  A pathological block
  (or an injected hang) trips :class:`repro.errors.StepBudgetExceeded`
  at a deterministic dynamic position instead of stalling a worker
  until the coarse shard deadline.
* **Strict vs salvage** — salvage (the default) degrades: quarantined
  blocks land in the ``quarantined`` funnel bucket, corrupt cache
  files are moved to ``quarantine/``, failed cache writes are skipped.
  Strict (``--strict`` / ``REPRO_STRICT=1``) promotes any of those
  into :class:`repro.errors.StrictModeViolation` so CI fails fast.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro import envvars
from repro.errors import StrictModeViolation
from repro.telemetry import core as telemetry


# ---------------------------------------------------------------------------
# Strict / salvage mode and the step budget
# ---------------------------------------------------------------------------

def strict_mode() -> bool:
    """Is ``--strict`` active? (salvage — ``False`` — is the default)"""
    return envvars.get("REPRO_STRICT")


def quarantine_or_raise(what: str, detail: str = "") -> None:
    """The single strict/salvage decision point.

    Salvage mode returns (the caller degrades); strict mode raises
    :class:`StrictModeViolation` so the quarantine fails the run.
    """
    if strict_mode():
        raise StrictModeViolation(what, detail)


def step_budget() -> int:
    """Per-``execute_block`` step ceiling (``REPRO_STEP_BUDGET``).

    The default (8,000,000) sits far above the deepest legitimate run
    the pipeline produces (latency/port benches: ~1k-instruction
    unrolled bodies at unroll ~1000 stay well under 10^6 steps); the
    ceiling exists to convert runaways into quarantines, not to shave
    honest work.
    """
    return envvars.get("REPRO_STEP_BUDGET")


# ---------------------------------------------------------------------------
# Retry with deterministic jittered backoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with deterministic jittered backoff.

    ``backoff_ms(key, attempt)`` grows exponentially from ``base_ms``
    (capped at ``max_ms``) and is scaled by a jitter factor in
    ``[0.5, 1.5)`` hashed from ``(seed, key, attempt)`` — reproducible
    across runs, de-synchronised across keys (the reason jitter exists
    at all), and free of RNG state that could bleed into the
    simulation's own seeding.
    """

    max_attempts: int = 3
    base_ms: float = 5.0
    multiplier: float = 2.0
    max_ms: float = 200.0
    seed: int = 0

    def backoff_ms(self, key: str, attempt: int) -> float:
        """Delay *before* retry number ``attempt`` (1-based)."""
        base = min(self.base_ms * self.multiplier ** (attempt - 1),
                   self.max_ms)
        token = f"{self.seed}|{key}|{attempt}".encode()
        jitter = 0.5 + zlib.crc32(token) / 2 ** 32
        return base * jitter

    def run(self, fn: Callable[[int], object], *, key: str,
            retry_on: Tuple[Type[BaseException], ...] = (OSError,),
            sleep: Callable[[float], None] = time.sleep):
        """Call ``fn(attempt)`` until it succeeds or attempts run out.

        Retries only on ``retry_on``; each retry is counted
        (``resilience.retries``) and its backoff observed
        (``resilience.backoff_ms``) before sleeping.  The final
        attempt's exception propagates to the caller, which owns the
        degrade-or-raise decision.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                delay_ms = self.backoff_ms(key, attempt)
                telemetry.count("resilience.retries")
                telemetry.observe("resilience.backoff_ms", delay_ms)
                telemetry.event("resilience.retry", key=str(key)[:120],
                                attempt=attempt,
                                backoff_ms=round(delay_ms, 3))
                sleep(delay_ms / 1000.0)
            try:
                return fn(attempt)
            except retry_on as exc:
                last = exc
        assert last is not None
        raise last


def default_retry_policy(seed: int = 0) -> RetryPolicy:
    return RetryPolicy(seed=seed)
