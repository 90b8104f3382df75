"""Shared fixtures for the benchmark/reproduction harness.

Every bench regenerates one of the paper's tables or figures, prints
it (run pytest with ``-s`` to see them live), and writes it to
``reports/<bench>.txt``.  The heavyweight pipeline artefacts (corpus,
measurements, trained models) are shared session-wide and disk-cached,
so only the first run pays the full simulation cost.

Scale: ``REPRO_SCALE`` (default 0.004 ≈ 1/250 of the paper's 358,561
blocks).  Raise it for tighter statistics, e.g.
``REPRO_SCALE=0.01 pytest benchmarks/``.
"""

import os

import pytest

from repro import envvars, telemetry
from repro.eval.pipeline import Experiment

REPORT_DIR = os.path.join(os.path.dirname(__file__), "..", "reports")


@pytest.fixture(scope="session", autouse=True)
def bench_telemetry():
    """Collect telemetry for the whole bench session.

    Every bench run leaves ``reports/telemetry_bench_session.{json,txt}``
    behind: stage timings, cache hit/miss behaviour, and the coverage
    funnel for everything profiled during the session.  Disable with
    ``REPRO_TELEMETRY=0`` (e.g. when chasing peak numbers).
    """
    if not envvars.get("REPRO_TELEMETRY"):
        yield
        return
    telemetry.enable()
    yield
    os.makedirs(REPORT_DIR, exist_ok=True)
    session_report = telemetry.build_run_report(
        telemetry.registry(), name="telemetry_bench_session",
        meta={"scale": envvars.get("REPRO_SCALE"),
              "seed": envvars.get("REPRO_SEED")})
    telemetry.write_run_report(session_report, REPORT_DIR)
    telemetry.reset()


@pytest.fixture(scope="session")
def experiment():
    return Experiment()


@pytest.fixture(scope="session")
def report():
    """Print a rendered table/figure and persist it under reports/."""
    os.makedirs(REPORT_DIR, exist_ok=True)

    def emit(name: str, text: str) -> str:
        print()
        print(f"===== {name} =====")
        print(text)
        path = os.path.join(REPORT_DIR, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return text

    return emit
