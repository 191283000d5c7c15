"""Churn subsystem: declarative fault schedules and membership dynamics.

The first subsystem that mutates the node set *mid-run*:

``schedule``
    :class:`FaultEvent` / :class:`FaultSchedule` — crash, crash-recover,
    late-join, and Byzantine-flip events at absolute or pulse-relative
    times, validated against the resilience budget (crashed + dormant +
    corrupted nodes never exceed ``f``).
``injector``
    :class:`ChurnController` — the scheduler-facing
    :class:`~repro.sim.runtime.DynamicsHook` that seeds churn events,
    resolves pulse-relative triggers, and applies membership changes.
``resync``
    :class:`ResyncProtocol` — the listen-then-join wrapper recovering
    nodes restart behind (CPS itself has no join step).

Churn *profiles* (named schedules parameterized by the deployment)
register in the scenario registry under kind ``churn``
(:mod:`repro.scenarios.churn`), so any campaign case composes a churn
axis with the existing adversary/delay/topology/drift axes; the
stabilization metrics live in :mod:`repro.analysis.metrics` and the
conformance monitor in :mod:`repro.checks.monitors`.  See
``docs/DYNAMICS.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "injector": ("ChurnController",),
        "schedule": ("FaultEvent", "FaultSchedule", "MalformedScheduleError"),
    },
)
