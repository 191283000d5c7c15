"""The churn controller: executes a fault schedule inside a simulation.

:class:`ChurnController` implements the scheduler's
:class:`~repro.sim.runtime.DynamicsHook`.  At install time it validates
the schedule against the simulation's ``(n, f)``, deactivates late
joiners, and seeds absolute-time churn events into the event queue; at
run time it resolves pulse-relative triggers (``at_pulse``) from the
pulse-recording path and applies membership changes through the
scheduler's mutation surface (``deactivate_node`` / ``activate_node`` /
``corrupt_node`` / ``restore_node``).

Every applied change is recorded (``applied``) and announced through
*both* observation channels: the streaming-checks hook (``checks
.on_annotate(..., "churn", ...)``, trace-level independent — this is
what the :class:`~repro.checks.monitors.StabilizationMonitor` consumes)
and a full trace (a ``ProtocolRecord`` of kind ``"churn"``).

Churn events carry :data:`~repro.sim.events.PRIORITY_CHURN`, the lowest
dispatch priority, so a membership change "at t" happens after every
timer, delivery, and adversary wakeup due at ``t`` — crashes never
retroactively swallow same-instant deliveries, which is what keeps
executions with and without a schedule comparable up to the first
event.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.params import ProtocolParameters
from repro.dynamics.resync import ResyncProtocol
from repro.dynamics.schedule import (
    ACTIVATION_KINDS,
    FaultEvent,
    FaultSchedule,
    MalformedScheduleError,
)
from repro.sim.events import PRIORITY_CHURN
from repro.sim.runtime import DynamicsHook
from repro.sim.trace import ProtocolRecord


class ChurnController(DynamicsHook):
    """Drives one :class:`FaultSchedule` through a simulation.

    Parameters
    ----------
    schedule:
        The validated (or to-be-validated) fault schedule.
    params:
        The deployment's protocol parameters.  When given, recovering
        and joining nodes restart behind a
        :class:`~repro.dynamics.resync.ResyncProtocol` (the listen-
        then-join wrapper); when ``None`` they restart cold.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        params: Optional[ProtocolParameters] = None,
    ) -> None:
        self.schedule = schedule
        self.params = params
        #: ``(time, kind, node)`` for every change actually applied.
        self.applied: List[Tuple[float, str, int]] = []
        self._by_pulse: Dict[int, List[FaultEvent]] = {}
        self._horizon = 0  # highest pulse index already triggered

    # ------------------------------------------------------------------
    # DynamicsHook interface

    def install(self, sim: Any) -> None:
        self.schedule.validate(sim.config.n, sim.f)
        corrupted = set(self.schedule.initially_corrupted(sim.config.n))
        if corrupted != sim.faulty:
            # The builder owns the initial Byzantine set; refuse to run
            # a schedule whose budget accounting assumed a different one.
            raise MalformedScheduleError(
                f"schedule expects the initially corrupted set "
                f"{sorted(corrupted)} but the simulation corrupted "
                f"{sorted(sim.faulty)}"
            )
        for node in self.schedule.initially_dormant():
            sim.deactivate_node(node)
        for event in self.schedule.events:
            if event.at is not None:
                sim.queue.push(event.at, PRIORITY_CHURN, event)
            else:
                self._by_pulse.setdefault(event.at_pulse, []).append(event)

    def on_pulse(self, sim: Any, time: float, node: int, index: int) -> None:
        if index <= self._horizon or not self._by_pulse:
            return
        # Global pulse progress advanced: release every pending trigger
        # at or below the new horizon (indices normally advance by one,
        # but a recovering node's catch-up must not re-fire old ones).
        for threshold in sorted(self._by_pulse):
            if threshold > index:
                break
            if threshold <= self._horizon:
                continue
            for event in self._by_pulse.pop(threshold):
                sim.queue.push(time, PRIORITY_CHURN, event)
        self._horizon = index

    def apply(self, sim: Any, action: FaultEvent) -> None:
        kind = action.kind
        node = action.node
        if kind == "crash":
            sim.deactivate_node(node)
        elif kind in ("recover", "join"):
            sim.activate_node(node, self._restart_protocol(sim, node))
        elif kind == "corrupt":
            sim.corrupt_node(node)
        elif kind == "restore":
            sim.restore_node(node, self._restart_protocol(sim, node))
        else:  # pragma: no cover - schedule validation rejects these
            raise ValueError(f"unknown churn action {kind!r}")
        self.applied.append((sim.now, kind, node))
        if sim.telemetry is not None:
            # Schedule-level granularity: distinguishes a "recover" from
            # a "join" where the scheduler's dynamics.activate counter
            # cannot.
            sim.telemetry.incr(f"dynamics.applied.{kind}")
        details = {"action": kind, "node": node}
        if sim.checks is not None:
            sim.checks.on_annotate(sim.now, node, "churn", details)
        if sim.trace.full:
            sim.trace.records.append(
                ProtocolRecord(sim.now, node, "churn", details)
            )

    # ------------------------------------------------------------------
    # Helpers

    def _restart_protocol(self, sim: Any, node: int) -> Any:
        if self.params is not None:
            return ResyncProtocol(
                self.params, lambda: sim._protocol_factory(node)
            )
        return sim._protocol_factory(node)

    def activations_applied(self) -> List[Tuple[float, str, int]]:
        """The applied recover/join/restore changes, in order."""
        return [
            entry
            for entry in self.applied
            if entry[1] in ACTIVATION_KINDS
        ]
