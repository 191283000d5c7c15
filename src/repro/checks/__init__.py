"""Conformance engine: streaming theorem-bound monitors.

The paper's value is its *guarantees*; this subsystem makes them
machine-checked over every scenario the engine can produce:

``catalog``
    :data:`MONITOR_CATALOG` (monitor name -> paper claim) and which
    registry scenarios each monitor judges — the one source of both,
    and all that ``repro check list`` loads.
``monitors``
    :class:`Violation` / :class:`Monitor` / :class:`CheckSet` — the
    streaming invariant monitors (Theorem 17 skew and periods, liveness,
    Lemma 11 TCB consistency, Theorem 9 APA contraction, churn
    stabilization), fed online through either engine's
    ``attach_checks`` so they judge a run at ``trace="none"``; each
    verdict also carries its :class:`Headroom`.
``conformance``
    :func:`judged_run` — the one monitored execution (build, attach
    the check set, run, collect verdicts) every judge in the package
    calls; the ``judge_*`` functions, which give every experiment
    table its verdicts (:func:`judge_pulses` — the same monitors fed
    from a finished run's pulse trains — for ``within``, and one named
    judge per other paper statement); :func:`check_scenario` /
    :func:`conformance_matrix` drop every scenario-registry entry
    into a reference configuration and judge it against the
    closed-form bounds (``repro check run/matrix``).

The deliberately-broken executions proving the monitors actually fire
are data, not code: ``fuzz-fixture/v1`` files under
``results/fuzz/promoted/`` that ``repro check fixture`` replays (see
:mod:`repro.fuzz.corpus`).  See ``docs/CONFORMANCE.md`` for the
workflow.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "catalog": (
            "CHURN_MONITORS",
            "CPS_MONITORS",
            "MODE_MONITORS",
            "MONITOR_CATALOG",
            "applicable_monitors",
            "scenario_mode",
        ),
        "conformance": (
            "check_scenario",
            "churn_check_set",
            "conformance_matrix",
            "judge_apa",
            "judge_crusader",
            "judge_estimates",
            "judge_lower_bound",
            "judge_steady_skew",
            "judged_run",
            "matrix_payload_bytes",
            "render_matrix",
            "render_report",
            "render_verdicts",
            "scenario_case",
        ),
        "monitors": (
            "ApaContractionMonitor",
            "CheckSet",
            "Monitor",
            "PeriodWindowMonitor",
            "ProgressMonitor",
            "SkewBoundMonitor",
            "StabilizationMonitor",
            "TcbConsistencyMonitor",
            "Violation",
        ),
    },
)
