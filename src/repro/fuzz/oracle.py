"""The counterexample oracle: one fuzz payload through the monitors.

A fuzz payload is runnable data — ``{"case", "pulses", "seed"}`` — and
the oracle *is* the conformance engine's
:func:`~repro.checks.conformance.judged_run` (the churn stabilization
monitor when the case names a fault schedule, the Theorem 17 /
Lemma 11 set otherwise).  Any verdict with violations is a
counterexample.

Everything is deterministic given the payload — replaying a fixture
twice, or at different trace levels, produces byte-identical
:func:`verdict_payload` serializations; the determinism tests and the
``repro fuzz replay`` CLI rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.analysis import metrics
from repro.checks.conformance import (
    RESYNC_PULSE_BUDGET,
    JudgedRun,
    judged_run,
)


def replay_fixture(
    payload: Dict[str, Any], trace: Any = "pulses"
) -> JudgedRun:
    """Re-execute a serialized fixture (same engine path as the search)."""
    return judged_run(
        payload["case"], payload["pulses"], payload["seed"], trace=trace
    )


def expectation_met(fixture: Dict[str, Any], run: JudgedRun) -> bool:
    """Did the monitors fire exactly when the fixture says they must?

    A *counterexample* fixture (``expect: violation``) holds while the
    monitors still fire on it; an *interesting corner* (``expect:
    pass``, the default) holds while the bounds still do.
    """
    return (not run.ok) == (fixture.get("expect", "pass") == "violation")


def verdict_payload(
    fixture: Dict[str, Any], run: JudgedRun
) -> Dict[str, Any]:
    """The canonical, byte-stable replay output of one fixture.

    Contains the full verdicts *and* the honest pulse streams, so the
    determinism test can assert byte identity across invocations and
    across ``PULSES`` vs ``FULL`` trace levels (no wall-clock data).
    """
    return {
        "fixture_id": fixture.get("fixture_id"),
        "expect": fixture.get("expect", "pass"),
        "ok": run.ok,
        "expectation_met": expectation_met(fixture, run),
        "verdicts": [verdict.as_dict() for verdict in run.verdicts],
        "pulses": {
            str(node): times
            for node, times in sorted(run.result.pulses.items())
        },
        "events": run.result.events_processed,
    }


@dataclass(frozen=True)
class InterestScore:
    """How close a *passing* run came to its bounds (0 = slack, 1 =
    grazing)."""

    skew_over_s: float = 0.0
    resync_over_budget: float = 0.0
    envelope_over_s: float = 0.0

    @property
    def score(self) -> float:
        return max(
            self.skew_over_s, self.resync_over_budget, self.envelope_over_s
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "score": self.score,
            "skew_over_s": self.skew_over_s,
            "resync_over_budget": self.resync_over_budget,
            "envelope_over_s": self.envelope_over_s,
        }


def interest_score(run: JudgedRun) -> InterestScore:
    """Score a surviving example by how hard it pressed the bounds.

    ``skew_over_s``
        Worst observed honest skew over Theorem 17's ``S`` (for churn
        runs, over the never-disturbed stable cohort).
    ``resync_over_budget``
        Slowest applied activation's pulses-to-resync over the
        conformance resync budget (churn only).
    ``envelope_over_s``
        Worst post-resync alignment envelope over ``S`` (churn only).
    """
    result, params = run.result, run.built.params
    simulation = run.built.simulation
    cohort, reports = simulation.honest, []
    if run.mode == "churn":
        cohort, reports = metrics.stabilization_reports(
            result.pulses,
            simulation.dynamics.schedule.stable_nodes(params.n),
            simulation.dynamics.activations_applied(),
            params.S,
        )
    resync_pulses, envelope = metrics.worst_resync(reports)
    return InterestScore(
        skew_over_s=metrics.cohort_skew(result.pulses, cohort, default=0.0)
        / params.S,
        resync_over_budget=resync_pulses / RESYNC_PULSE_BUDGET,
        envelope_over_s=envelope / params.S,
    )
