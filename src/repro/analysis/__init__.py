"""Measurement, theory bounds, reporting, and the experiment registry."""

from repro.analysis.metrics import (
    PulseReport,
    check_liveness,
    common_pulse_count,
    max_period,
    max_skew,
    min_period,
    pulse_skew,
    skew_trajectory,
)
from repro.analysis.reporting import Table, format_value
from repro.analysis.runner import TrialOutcome, run_pulse_trial

__all__ = [
    "PulseReport",
    "Table",
    "TrialOutcome",
    "check_liveness",
    "common_pulse_count",
    "format_value",
    "max_period",
    "max_skew",
    "min_period",
    "pulse_skew",
    "run_pulse_trial",
    "skew_trajectory",
]
