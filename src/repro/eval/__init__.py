"""Evaluation: metrics, validation protocol, cached pipeline, reports."""

from repro.eval.metrics import (average_error, kendall_tau,
                                relative_error, weighted_error)
from repro.eval.pipeline import UARCHES, Experiment, default_experiment
from repro.eval.reporting import (bar_chart, format_table,
                                  grouped_bar_chart, schedule_diagram,
                                  side_by_side)
from repro.eval.sweeps import (SweepPoint, stability_table,
                                sweep_naive_unroll, sweep_unroll_pairs)
from repro.eval.tuning import TunedModel, TuningReport, tune
from repro.eval.validation import (ValidationResult, ValidationRow,
                                   profile_corpus, validate)

__all__ = [
    "relative_error", "average_error", "weighted_error", "kendall_tau",
    "Experiment", "default_experiment", "UARCHES",
    "ValidationResult", "ValidationRow", "profile_corpus",
    "validate", "format_table", "bar_chart", "grouped_bar_chart",
    "schedule_diagram", "side_by_side",
    "tune", "TunedModel", "TuningReport",
    "SweepPoint", "stability_table",
    "sweep_naive_unroll", "sweep_unroll_pairs",
]
