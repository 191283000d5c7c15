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

from typing import Any, Dict, Optional

from repro.checks.conformance import JudgedRun, judged_run
from repro.checks.monitors import (
    Headroom,
    SkewBoundMonitor,
    StabilizationMonitor,
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


#: The verdicts whose headroom ranks a surviving run.  The period and
#: Lemma 11 bounds graze far more often and would flood the floor.
SCORED_MONITORS = (SkewBoundMonitor.name, StabilizationMonitor.name)


def interest_score(run: JudgedRun) -> Optional[Headroom]:
    """How hard a surviving run pressed its bounds: the worst
    :class:`~repro.checks.monitors.Headroom` among the
    :data:`SCORED_MONITORS` verdicts (``None`` when they compared
    nothing)."""
    return max(
        (
            verdict.worst
            for verdict in run.verdicts
            if verdict.monitor in SCORED_MONITORS
            and verdict.worst is not None
        ),
        key=lambda worst: worst.ratio,
        default=None,
    )
