"""Deliberately-broken executions proving the monitors actually fire.

A conformance engine that always reports PASS is indistinguishable from
one that checks nothing, so this module names corners where the
guarantees provably collapse:

* the **broken** fixture — faulty links undercutting the honest minimum
  delay (``u_tilde = 16 u``, experiment E8's setup): rushed echoes
  force honest-dealer rejections and the measured skew exceeds
  Theorem 17's ``S``, so the static monitors must emit violations;
* the **churn** fixture — a crash whose scheduled recovery silently
  never happens: the execution runs a crash-only schedule while the
  :class:`~repro.checks.monitors.StabilizationMonitor` is configured
  with the *intended* schedule (crash then recover), exactly the
  observability a real deployment needs when a node fails to come back.

Each fixture is a case dict, a pulse count and a default seed;
:func:`run_fixture` puts it through
:func:`~repro.checks.conformance.judged_run`.  Both the test suite and
``repro check fixture`` run these and demand at least one
:class:`~repro.checks.monitors.Violation`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.checks.conformance import JudgedRun, churn_check_set, judged_run
from repro.checks.monitors import CheckSet
from repro.dynamics import FaultEvent, FaultSchedule

#: E8's model-violation regime: faulty links 16x faster than honest
#: uncertainty permits.  The table shows the measured skew exceeding S.
BROKEN_CASE: Dict[str, Any] = {
    "n": 6,
    "theta": 1.0005,
    "d": 1.0,
    "u": 0.01,
    "adversary": "rushing-echo",
    "delay": "fast-to-faulty",
    "drift": "extreme",
    "u_tilde": 0.16,
}
BROKEN_PULSES = 12

#: Churn fixture: the crash is real, the recovery never happens.  The
#: case holds the *executed* schedule — the crash only.
CHURN_FIXTURE_RECOVER_PULSE = 6
CHURN_FIXTURE_CASE: Dict[str, Any] = {
    "n": 6,
    "theta": 1.001,
    "d": 1.0,
    "u": 0.02,
    "adversary": "silent",
    "drift": "extreme",
    "churn": "single-crash",
    "churn_params": {"node": 0, "at_pulse": 3},
}
CHURN_FIXTURE_PULSES = 14


def _intended_check_set(built: Any, _pulses: int) -> CheckSet:
    """The watchdog for the schedule that was *promised*: the executed
    crash plus a ``recover`` at :data:`CHURN_FIXTURE_RECOVER_PULSE`.
    The stabilization monitor must report both the missing recovery
    and the node's tail silence."""
    executed = built.simulation.dynamics.schedule
    intended = FaultSchedule(
        events=(
            *executed.events,
            FaultEvent("recover", 0, at_pulse=CHURN_FIXTURE_RECOVER_PULSE),
        ),
        corruptions=executed.corruptions,
        description="crash with the promised recovery",
    )
    return churn_check_set(intended, built.params)


#: name -> (case, pulses, default seed, check-set override).
FIXTURES: Dict[str, Tuple[Dict[str, Any], int, int, Any]] = {
    "broken": (BROKEN_CASE, BROKEN_PULSES, 2, None),
    "churn": (
        CHURN_FIXTURE_CASE,
        CHURN_FIXTURE_PULSES,
        3,
        _intended_check_set,
    ),
}


def run_fixture(name: str, seed: Optional[int] = None) -> JudgedRun:
    """Execute one broken fixture; at least one verdict carries a
    violation — asserted by the test suite and by ``repro check
    fixture``."""
    case, pulses, default_seed, check_set = FIXTURES[name]
    return judged_run(
        case,
        pulses,
        default_seed if seed is None else seed,
        check_set=check_set,
    )
