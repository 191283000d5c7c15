"""Churn-profile catalog: fault schedules under registry keys.

Factories follow the ``churn`` convention of
:mod:`repro.scenarios.registry`: ``factory(params, **overrides)``
returns a :class:`~repro.dynamics.schedule.FaultSchedule` sized from
``params.n`` / ``params.f``, so one profile composes with any
deployment the campaign grid names.

Budget convention (enforced by schedule validation): crashed, dormant,
and corrupted nodes all count against the resilience budget ``f`` — a
crash *is* a fault — so every profile declares how many nodes the
adversary corrupts from time 0 (``corruptions``, always the top ids)
and spends the remaining budget on churn.  Disturbed nodes are the low
ids; the middle of the id range stays untouched and forms the stable
reference cohort of the stabilization metrics.

Triggers are pulse-relative (``at_pulse``), so a profile means the same
thing across parameter regimes whose periods differ by orders of
magnitude.
"""

from __future__ import annotations

from repro.scenarios.registry import ParamSpec, register_scenario


def _budget(params, reserve: int) -> int:
    """Corruptions leaving ``reserve`` budget slots for churn."""
    corruptions = params.f - reserve
    if corruptions < 0:
        from repro.dynamics.schedule import MalformedScheduleError

        raise MalformedScheduleError(
            f"profile needs {reserve} free fault slots but the "
            f"deployment only has f={params.f}"
        )
    return corruptions


@register_scenario(
    "churn",
    "single-crash",
    description="One honest node fail-stops mid-run and never returns",
    paper_ref="a crash is a (benign) fault: the survivors must hold "
    "Theorem 17 with the crash charged against f",
    params=(
        ParamSpec("node", 0, "id of the node that crashes"),
        ParamSpec("at_pulse", 3, "pulse index triggering the crash"),
    ),
    tags=("churn", "cps"),
)
def _single_crash(params, node: int = 0, at_pulse: int = 3):
    from repro.dynamics.schedule import FaultEvent, FaultSchedule

    return FaultSchedule(
        events=(FaultEvent("crash", node, at_pulse=at_pulse),),
        corruptions=_budget(params, 1),
        description="one permanent fail-stop",
    )


@register_scenario(
    "churn",
    "rolling-crashes",
    description="A sequence of single crashes, each healed before the "
    "next node goes down",
    paper_ref="sequential maintenance: at most one node down at a time, "
    "re-stabilization between outages (Lemma 16 dynamics)",
    params=(
        ParamSpec("gap", 4, "pulses between a recovery and the next "
                  "crash"),
    ),
    tags=("churn", "cps"),
)
def _rolling_crashes(params, gap: int = 4):
    from repro.dynamics.schedule import FaultEvent, FaultSchedule

    events = []
    pulse = 2
    for node in (0, 1):
        events.append(FaultEvent("crash", node, at_pulse=pulse))
        events.append(FaultEvent("recover", node, at_pulse=pulse + 2))
        pulse += 2 + gap
    return FaultSchedule(
        events=tuple(events),
        corruptions=_budget(params, 1),
        description="two staggered crash/recover cycles",
    )


@register_scenario(
    "churn",
    "crash-recover-wave",
    description="Two nodes crash in a staggered wave, then both recover",
    paper_ref="the full budget spent on simultaneous benign faults, "
    "then returned — the rejoiners resync via the listen-then-join rule",
    params=(
        ParamSpec("at_pulse", 2, "pulse index of the first crash"),
    ),
    tags=("churn", "cps"),
)
def _crash_recover_wave(params, at_pulse: int = 2):
    from repro.dynamics.schedule import FaultEvent, FaultSchedule

    return FaultSchedule(
        events=(
            FaultEvent("crash", 0, at_pulse=at_pulse),
            FaultEvent("crash", 1, at_pulse=at_pulse + 1),
            FaultEvent("recover", 0, at_pulse=at_pulse + 3),
            FaultEvent("recover", 1, at_pulse=at_pulse + 5),
        ),
        corruptions=_budget(params, 2),
        description="overlapping crash pair with staggered recovery",
    )


@register_scenario(
    "churn",
    "late-join-cohort",
    description="Two nodes are dormant at time 0 and join the running "
    "system one after the other",
    paper_ref="CPS has no join step; the resync wrapper supplies the "
    "minimal one (listen a round, median-vote the phase and round)",
    params=(
        ParamSpec("at_pulse", 2, "pulse index of the first join"),
    ),
    tags=("churn", "cps"),
)
def _late_join_cohort(params, at_pulse: int = 2):
    from repro.dynamics.schedule import FaultEvent, FaultSchedule

    return FaultSchedule(
        events=(
            FaultEvent("join", 0, at_pulse=at_pulse),
            FaultEvent("join", 1, at_pulse=at_pulse + 2),
        ),
        corruptions=_budget(params, 2),
        description="two-node late-join cohort",
    )


@register_scenario(
    "churn",
    "flapping-node",
    description="One node crashes and recovers repeatedly (flapping "
    "hardware)",
    paper_ref="every recovery restarts the Lemma 16 contraction from "
    "the listen-then-join estimate",
    params=(
        ParamSpec("cycles", 2, "number of crash/recover cycles"),
        ParamSpec("node", 0, "id of the flapping node"),
    ),
    tags=("churn", "cps"),
)
def _flapping_node(params, cycles: int = 2, node: int = 0):
    from repro.dynamics.schedule import (
        FaultEvent,
        FaultSchedule,
        MalformedScheduleError,
    )

    if cycles < 1:
        raise MalformedScheduleError(
            f"flapping-node needs cycles >= 1, got {cycles}"
        )
    events = []
    pulse = 2
    for _ in range(cycles):
        events.append(FaultEvent("crash", node, at_pulse=pulse))
        events.append(FaultEvent("recover", node, at_pulse=pulse + 2))
        pulse += 5
    return FaultSchedule(
        events=tuple(events),
        corruptions=_budget(params, 1),
        description=f"{cycles} crash/recover cycles of one node",
    )


@register_scenario(
    "churn",
    "adversary-handoff",
    description="The adversary releases one corrupted identity (it "
    "rejoins honestly) and corrupts a fresh honest node instead",
    paper_ref="mobile-adversary corner: the corrupted *set* moves while "
    "its size stays within f at every instant",
    params=(
        ParamSpec("at_pulse", 3, "pulse index of the handoff"),
    ),
    tags=("churn", "cps"),
)
def _adversary_handoff(params, at_pulse: int = 3):
    from repro.dynamics.schedule import (
        FaultEvent,
        FaultSchedule,
        MalformedScheduleError,
    )

    if params.f < 1:
        raise MalformedScheduleError(
            "adversary-handoff needs f >= 1 (someone to release)"
        )
    released = params.n - 1  # the top id, corrupted from time 0
    return FaultSchedule(
        events=(
            # Release first, corrupt second: the budget never exceeds f.
            FaultEvent("restore", released, at_pulse=at_pulse),
            FaultEvent("corrupt", 0, at_pulse=at_pulse),
        ),
        corruptions=_budget(params, 0),
        description="corrupted set moves by one identity",
    )
