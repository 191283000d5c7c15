"""Measurement, theory bounds, reporting, and the experiment registry."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "PulseReport",
            "check_liveness",
            "common_pulse_count",
            "max_period",
            "max_skew",
            "min_period",
            "pulse_skew",
            "skew_trajectory",
        ),
        "reporting": ("Table", "format_value"),
        "runner": ("TrialOutcome", "run_pulse_trial"),
    },
)
