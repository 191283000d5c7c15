"""Conformance engine: streaming theorem-bound monitors.

The paper's value is its *guarantees*; this subsystem makes them
machine-checked over every scenario the engine can produce:

``monitors``
    :class:`Violation` / :class:`Monitor` / :class:`CheckSet` — the
    streaming invariant monitors (Theorem 17 skew and periods, liveness,
    Lemma 11 TCB consistency, Theorem 9 APA contraction, churn
    stabilization), fed online through the scheduler's ``checks=`` hook
    so they compose with the ``TraceLevel.PULSES`` fast path.
``conformance``
    :func:`judged_run` — the one monitored execution (build, attach
    the check set, run, collect verdicts) every judge in the package
    calls, and :func:`judge_pulses`, the same monitors fed from a
    finished run's pulse trains (what every experiment row's
    ``within`` is); :func:`check_scenario` /
    :func:`conformance_matrix` drop every scenario-registry entry
    into a reference configuration and judge it against the
    closed-form bounds (``repro check run/matrix``).
``campaign``
    :func:`campaign_conformance` — verdicts for the scenarios a
    campaign references, persisted as ``<spec_key>.check.json``
    side-cars by ``repro campaign run --check``.

The deliberately-broken executions proving the monitors actually fire
are data, not code: ``fuzz-fixture/v1`` files under
``results/fuzz/promoted/`` that ``repro check fixture`` replays (see
:mod:`repro.fuzz.corpus`).  See ``docs/CONFORMANCE.md`` for the
workflow.
"""

from repro.checks.campaign import (
    campaign_conformance,
    campaign_scenarios,
    render_campaign_conformance,
)
from repro.checks.conformance import (
    APA_MONITORS,
    CHURN_MONITORS,
    CPS_MONITORS,
    MODE_MONITORS,
    MONITOR_CATALOG,
    JudgedRun,
    ScenarioReport,
    applicable_monitors,
    check_scenario,
    churn_check_set,
    conformance_matrix,
    cps_check_set,
    judge_pulses,
    judged_run,
    matrix_payload_bytes,
    render_matrix,
    render_report,
    scenario_case,
    scenario_mode,
)
from repro.checks.monitors import (
    ApaContractionMonitor,
    CheckSet,
    Monitor,
    MonitorVerdict,
    PeriodWindowMonitor,
    ProgressMonitor,
    SkewBoundMonitor,
    StabilizationMonitor,
    TcbConsistencyMonitor,
    Violation,
)

__all__ = [
    "APA_MONITORS",
    "CHURN_MONITORS",
    "CPS_MONITORS",
    "MODE_MONITORS",
    "MONITOR_CATALOG",
    "ApaContractionMonitor",
    "CheckSet",
    "JudgedRun",
    "Monitor",
    "MonitorVerdict",
    "PeriodWindowMonitor",
    "ProgressMonitor",
    "ScenarioReport",
    "SkewBoundMonitor",
    "StabilizationMonitor",
    "TcbConsistencyMonitor",
    "Violation",
    "applicable_monitors",
    "campaign_conformance",
    "campaign_scenarios",
    "check_scenario",
    "churn_check_set",
    "conformance_matrix",
    "cps_check_set",
    "judge_pulses",
    "judged_run",
    "matrix_payload_bytes",
    "render_campaign_conformance",
    "render_matrix",
    "render_report",
    "scenario_case",
    "scenario_mode",
]
