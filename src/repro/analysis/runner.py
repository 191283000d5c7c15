"""Experiment execution helpers (one place for run-and-measure plumbing)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.metrics import PulseReport, check_liveness
from repro.sim.scheduler import Simulation, SimulationResult


@dataclass
class TrialOutcome:
    """A measured run: report + the raw result for deeper inspection."""

    report: Optional[PulseReport]
    result: Optional[SimulationResult]
    live: bool
    error: Optional[str] = None


def run_pulse_trial(
    simulation: Simulation,
    pulses: int,
    warmup: int = 2,
) -> TrialOutcome:
    """Run a wired simulation for ``pulses`` pulses and summarize it.

    Protocol-level failures (e.g. the midpoint rule becoming
    under-determined in an ablation) are captured as ``error`` rather than
    propagated, so sweeps can tabulate them.
    """
    try:
        result = simulation.run(max_pulses=pulses)
    except Exception as exc:  # noqa: BLE001 - sweeps tabulate failures
        return TrialOutcome(None, None, False, f"{type(exc).__name__}: {exc}")
    honest = result.honest_pulses()
    live = check_liveness(honest, pulses)
    if not live:
        return TrialOutcome(None, result, False, "liveness violated")
    return TrialOutcome(
        PulseReport.from_pulses(honest, warmup=warmup), result, True
    )
