"""repro.resilience — fault injection, crash-safe resume, degradation.

Three cooperating layers (see docs/robustness.md):

* :mod:`repro.resilience.chaos` — deterministic, seeded fault
  injection at named points throughout the pipeline (``--chaos SPEC``
  / ``$REPRO_CHAOS``), so every failure scenario is reproducible.
* :mod:`repro.resilience.journal` — an append-only, checksummed run
  journal giving killed runs crash-safe ``--resume`` with
  byte-identical output.
* :mod:`repro.resilience.policy` — bounded retries with deterministic
  jittered backoff, the executor's step-budget watchdog, and the
  strict/salvage switch that decides whether quarantines fail the run.
"""

from repro.errors import (ChaosFault, StepBudgetExceeded,
                          StrictModeViolation)
from repro.resilience.chaos import (CRASH_EXIT_CODE, FAULT_POINTS,
                                    PIPELINE_FAULT_POINTS,
                                    SERVE_FAULT_POINTS, ChaosPolicy,
                                    ChaosSpecError)
from repro.resilience.journal import (RunJournal, journal_line,
                                      journal_name, parse_journal_line)
from repro.resilience.policy import (RetryPolicy, default_retry_policy,
                                     quarantine_or_raise, step_budget,
                                     strict_mode)

__all__ = [
    # chaos
    "ChaosPolicy", "ChaosSpecError", "ChaosFault", "FAULT_POINTS",
    "PIPELINE_FAULT_POINTS", "SERVE_FAULT_POINTS", "CRASH_EXIT_CODE",
    # journal
    "RunJournal", "journal_line", "journal_name", "parse_journal_line",
    # policy
    "RetryPolicy", "default_retry_policy", "step_budget",
    "strict_mode", "quarantine_or_raise",
    # errors
    "StepBudgetExceeded", "StrictModeViolation",
]
