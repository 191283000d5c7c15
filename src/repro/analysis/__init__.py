"""Measurement, theory bounds, reporting, and the experiment registry."""

from repro.analysis.metrics import (
    PulseReport,
    check_liveness,
    common_pulse_count,
    convergence_rounds,
    max_period,
    max_skew,
    min_period,
    pulse_skew,
    skew_trajectory,
)
from repro.analysis.reporting import Table, format_value, geometric_mean, ratio
from repro.analysis.runner import TrialOutcome, run_pulse_trial

__all__ = [
    "PulseReport",
    "Table",
    "TrialOutcome",
    "check_liveness",
    "common_pulse_count",
    "convergence_rounds",
    "format_value",
    "geometric_mean",
    "max_period",
    "max_skew",
    "min_period",
    "pulse_skew",
    "ratio",
    "run_pulse_trial",
    "skew_trajectory",
]
