"""Deliberately-broken executions proving the monitors actually fire.

A conformance engine that always reports PASS is indistinguishable from
one that checks nothing, so this module wires corners where the
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

Both the test suite and ``repro check fixture`` run these and demand at
least one :class:`~repro.checks.monitors.Violation`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.build import build_simulation
from repro.checks.conformance import churn_check_set, cps_check_set
from repro.checks.monitors import MonitorVerdict
from repro.dynamics import FaultEvent, FaultSchedule

#: E8's model-violation regime: faulty links 16x faster than honest
#: uncertainty permits.  The table shows the measured skew exceeding S.
BROKEN_N = 6
BROKEN_THETA = 1.0005
BROKEN_D = 1.0
BROKEN_U = 0.01
BROKEN_U_TILDE = 0.16
BROKEN_PULSES = 12


def build_broken_simulation(seed: int = 2, trace: Any = "pulses"):
    """CPS under rushing echoes with ``u_tilde >> u`` plus monitors.

    Returns ``(simulation, check_set, params)``; running the simulation
    for :data:`BROKEN_PULSES` pulses makes the skew monitor fire.
    """
    built = build_simulation(
        {
            "n": BROKEN_N,
            "theta": BROKEN_THETA,
            "d": BROKEN_D,
            "u": BROKEN_U,
            "adversary": "rushing-echo",
            "delay": "fast-to-faulty",
            "drift": "extreme",
            "u_tilde": BROKEN_U_TILDE,
        },
        seed=seed,
        trace=trace,
    )
    simulation, params = built.simulation, built.params
    checks = cps_check_set(params, simulation.honest, BROKEN_PULSES)
    simulation.attach_checks(checks)
    return simulation, checks, params


def run_broken_fixture(
    seed: int = 2,
) -> Tuple[List[MonitorVerdict], Any]:
    """Execute the broken fixture; returns ``(verdicts, result)``.

    At least one verdict carries a violation — asserted by the test
    suite and by ``repro check fixture``.
    """
    simulation, checks, _params = build_broken_simulation(seed=seed)
    result = simulation.run(max_pulses=BROKEN_PULSES)
    return checks.finish(), result


#: Churn fixture: the crash is real, the recovery never happens.
CHURN_FIXTURE_N = 6
CHURN_FIXTURE_THETA = 1.001
CHURN_FIXTURE_D = 1.0
CHURN_FIXTURE_U = 0.02
CHURN_FIXTURE_CRASH_PULSE = 3
CHURN_FIXTURE_RECOVER_PULSE = 6
CHURN_FIXTURE_PULSES = 14


def build_churn_fixture(seed: int = 3, trace: Any = "pulses"):
    """A crash-without-recovery execution plus its watchdog monitor.

    The *intended* schedule promises ``recover`` at pulse
    :data:`CHURN_FIXTURE_RECOVER_PULSE`; the *executed* schedule drops
    it, so the node stays down for good.  The stabilization monitor is
    parameterized with the intended schedule and must report both the
    missing recovery and the node's tail silence.

    Returns ``(simulation, check_set, params)``.
    """
    built = build_simulation(
        {
            "n": CHURN_FIXTURE_N,
            "theta": CHURN_FIXTURE_THETA,
            "d": CHURN_FIXTURE_D,
            "u": CHURN_FIXTURE_U,
            "adversary": "silent",
            "drift": "extreme",
            # The executed schedule: the crash only (the failure
            # being detected).
            "churn": "single-crash",
            "churn_params": {
                "node": 0,
                "at_pulse": CHURN_FIXTURE_CRASH_PULSE,
            },
        },
        seed=seed,
        trace=trace,
    )
    simulation, params = built.simulation, built.params
    executed = simulation.dynamics.schedule
    intended = FaultSchedule(
        events=(
            *executed.events,
            FaultEvent("recover", 0, at_pulse=CHURN_FIXTURE_RECOVER_PULSE),
        ),
        corruptions=executed.corruptions,
        description="crash with the promised recovery",
    )
    checks = churn_check_set(intended, params)
    simulation.attach_checks(checks)
    return simulation, checks, params


def run_churn_fixture(
    seed: int = 3,
) -> Tuple[List[MonitorVerdict], Any]:
    """Execute the crash-without-recovery fixture.

    The stabilization monitor must fire (missing recovery + tail
    silence) — asserted by the test suite and by
    ``repro check fixture --fixture churn``.
    """
    simulation, checks, _params = build_churn_fixture(seed=seed)
    result = simulation.run(max_pulses=CHURN_FIXTURE_PULSES)
    return checks.finish(), result
