"""Isolation for the process-wide resilience switches."""

import pytest

from repro import telemetry
from repro.resilience import chaos


@pytest.fixture(autouse=True)
def _isolate_resilience(monkeypatch):
    """Fresh telemetry + no inherited chaos/strict/budget state."""
    for name in ("REPRO_CHAOS", "REPRO_STRICT", "REPRO_STEP_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    chaos.set_policy(None)
    telemetry.reset()
    yield
    chaos.set_policy(None)
    telemetry.reset()
