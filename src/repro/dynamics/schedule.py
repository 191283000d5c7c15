"""Declarative fault schedules: membership change as plain data.

A :class:`FaultSchedule` describes *when the node set changes* during an
execution — crashes, crash-recoveries, late joins, and Byzantine flips —
without naming a protocol or a simulator.  Schedules are validated up
front (:meth:`FaultSchedule.validate`), hashable into campaign case
keys via :meth:`as_dict`, and executed by the
:class:`~repro.dynamics.injector.ChurnController` through the
scheduler's :class:`~repro.sim.runtime.DynamicsHook`.

Event kinds and the fault budget
--------------------------------

``crash``
    An active honest node stops executing (fail-stop).
``recover``
    A previously crashed node restarts (via the resynchronization
    wrapper of :mod:`repro.dynamics.resync`).
``join``
    A node that was dormant from time 0 starts for the first time.  Any
    node with a ``join`` event is dormant until that event fires.
``corrupt``
    A Byzantine flip: the adversary takes over an active honest node.
``restore``
    The inverse handoff: a Byzantine identity returns to the honest
    side and restarts.

Crashed, dormant, and corrupted nodes all count against the declared
resilience budget ``f`` — a crash *is* a fault in the paper's model, so
a schedule is only admissible if, at every instant, ``crashed + dormant
+ corrupted <= f``.  Validation additionally requires at least one
*stable* node (active and honest throughout): the stabilization metrics
and monitor use the stable cohort as the synchronization reference.

Events trigger either at an absolute real time (``at``) or when the
system-wide pulse progress first reaches a pulse index (``at_pulse``) —
the latter keeps schedules meaningful across parameter regimes whose
periods differ.  Events are applied in declared order when their
triggers coincide, and validation simulates the declared order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sim.errors import ConfigurationError

#: The admissible event kinds, in documentation order.
EVENT_KINDS: Tuple[str, ...] = (
    "crash",
    "recover",
    "join",
    "corrupt",
    "restore",
)

#: Kinds that (re)activate a node — the ones the stabilization monitor
#: derives re-synchronization expectations from.
ACTIVATION_KINDS: FrozenSet[str] = frozenset(
    {"recover", "join", "restore"}
)

#: Kinds that deactivate a node.
DEACTIVATION_KINDS: FrozenSet[str] = frozenset({"crash", "corrupt"})


class MalformedScheduleError(ConfigurationError):
    """A fault schedule is inconsistent with the model or the system.

    Raised by :meth:`FaultSchedule.validate` (and by event construction)
    for out-of-range nodes, impossible state transitions (recovering a
    node that never crashed), or budget violations (more simultaneous
    crashed + dormant + corrupted nodes than the declared ``f``).
    """


@dataclass(frozen=True)
class FaultEvent:
    """One membership change: what happens, to whom, and when.

    Exactly one of ``at`` (absolute real time) and ``at_pulse``
    (fires when any honest node first generates that pulse index) must
    be given.
    """

    kind: str
    node: int
    at: Optional[float] = None
    at_pulse: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise MalformedScheduleError(
                f"unknown fault-event kind {self.kind!r}; "
                f"kinds: {EVENT_KINDS}"
            )
        if (self.at is None) == (self.at_pulse is None):
            raise MalformedScheduleError(
                f"{self.kind} event for node {self.node}: give exactly "
                f"one of at= (real time) or at_pulse= (pulse index)"
            )
        if self.at is not None and self.at < 0:
            raise MalformedScheduleError(
                f"{self.kind} event for node {self.node}: "
                f"at={self.at} is negative"
            )
        if self.at_pulse is not None and self.at_pulse < 1:
            raise MalformedScheduleError(
                f"{self.kind} event for node {self.node}: "
                f"at_pulse={self.at_pulse} must be >= 1"
            )

    def trigger(self) -> str:
        """``"t=12.5"`` or ``"pulse 3"`` — for rendering."""
        if self.at is not None:
            return f"t={self.at:g}"
        return f"pulse {self.at_pulse}"


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered tuple of fault events plus the initial Byzantine set.

    ``corruptions`` is the number of nodes the adversary controls from
    time 0 (the builders corrupt the top ids, matching the static
    scenarios); churn events then spend whatever remains of the ``f``
    budget.
    """

    events: Tuple[FaultEvent, ...] = ()
    corruptions: int = 0
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.corruptions < 0:
            raise MalformedScheduleError(
                f"corruptions={self.corruptions} is negative"
            )

    # ------------------------------------------------------------------
    # Derived sets

    def initially_dormant(self) -> List[int]:
        """Nodes that must start inactive (their first event is a join)."""
        dormant = []
        seen: Set[int] = set()
        for event in self.events:
            if event.node in seen:
                continue
            seen.add(event.node)
            if event.kind == "join":
                dormant.append(event.node)
        return dormant

    def initially_corrupted(self, n: int) -> List[int]:
        """The top-id nodes the adversary controls from time 0."""
        return list(range(n - self.corruptions, n))

    def activations(self) -> List[FaultEvent]:
        """The recover/join/restore events, in declared order."""
        return [e for e in self.events if e.kind in ACTIVATION_KINDS]

    def stable_nodes(self, n: int) -> List[int]:
        """Nodes untouched by the schedule: honest and active throughout.

        These form the synchronization reference for stabilization
        metrics; validation guarantees at least one exists.
        """
        touched = {event.node for event in self.events}
        touched.update(self.initially_corrupted(n))
        return [v for v in range(n) if v not in touched]

    def finally_active(self, n: int) -> List[int]:
        """Honest nodes expected to be executing when the run ends."""
        state = self._initial_state(n)
        for event in self.events:
            state[event.node] = _TRANSITIONS[event.kind][1]
        return [v for v in range(n) if state.get(v) == "active"]

    # ------------------------------------------------------------------
    # Validation

    def _initial_state(self, n: int) -> Dict[int, str]:
        state = {v: "active" for v in range(n)}
        for v in self.initially_corrupted(n):
            state[v] = "corrupted"
        for v in self.initially_dormant():
            state[v] = "dormant"
        return state

    def validate(self, n: int, f: int) -> None:
        """Check the schedule against an ``(n, f)`` system.

        Raises :class:`MalformedScheduleError` on out-of-range nodes,
        impossible transitions (in declared order), budget violations
        (``crashed + dormant + corrupted > f`` at any step), a
        declared order contradicting the trigger order (validation
        simulates the declared order, so the runtime must apply events
        in the same order — pulse triggers and time triggers must each
        be non-decreasing), or an empty stable cohort.
        """
        self._validate_trigger_order()
        if self.corruptions > f:
            raise MalformedScheduleError(
                f"schedule corrupts {self.corruptions} nodes from the "
                f"start but the budget is f={f}"
            )
        for event in self.events:
            if not 0 <= event.node < n:
                raise MalformedScheduleError(
                    f"{event.kind} event names node {event.node}, "
                    f"outside the system 0..{n - 1}"
                )
        corrupted = set(self.initially_corrupted(n))
        dormant = self.initially_dormant()
        for v in dormant:
            if v in corrupted:
                raise MalformedScheduleError(
                    f"node {v} cannot both late-join and start corrupted"
                )
        state = self._initial_state(n)
        down = self.corruptions + len(dormant)
        if down > f:
            raise MalformedScheduleError(
                f"{down} nodes are faulty at time 0 "
                f"({self.corruptions} corrupted + {len(dormant)} "
                f"dormant) but the budget is f={f}"
            )
        for event in self.events:
            expected, target = _TRANSITIONS[event.kind]
            current = state[event.node]
            if current != expected:
                raise MalformedScheduleError(
                    f"cannot {event.kind} node {event.node} at "
                    f"{event.trigger()}: it is {current}, not {expected}"
                )
            state[event.node] = target
            if event.kind in DEACTIVATION_KINDS:
                down += 1
            elif event.kind in ACTIVATION_KINDS:
                down -= 1
            if down > f:
                raise MalformedScheduleError(
                    f"after the {event.kind} of node {event.node} at "
                    f"{event.trigger()}, {down} nodes are down/corrupted "
                    f"— beyond the budget f={f}"
                )
        if not self.stable_nodes(n):
            raise MalformedScheduleError(
                "schedule leaves no stable node: at least one node must "
                "stay honest and active throughout (the stabilization "
                "reference)"
            )

    def _validate_trigger_order(self) -> None:
        """Declared order must be consistent with trigger order.

        The runtime fires events by trigger; validation simulates the
        declared order.  The two agree when the pulse-relative triggers
        and the absolute-time triggers are each non-decreasing along
        the declared list (coinciding triggers keep declared order by
        queue insertion).  Mixed pulse/time interleavings cannot be
        ordered statically; an inconsistent one surfaces at runtime as
        a tabulated ``SimulationError``.
        """
        last_pulse: Optional[int] = None
        last_time: Optional[float] = None
        for event in self.events:
            if event.at_pulse is not None:
                if last_pulse is not None and event.at_pulse < last_pulse:
                    raise MalformedScheduleError(
                        f"declared order contradicts trigger order: the "
                        f"{event.kind} of node {event.node} at "
                        f"{event.trigger()} is listed after an event "
                        f"triggering at pulse {last_pulse}"
                    )
                last_pulse = event.at_pulse
            else:
                if last_time is not None and event.at < last_time:
                    raise MalformedScheduleError(
                        f"declared order contradicts trigger order: the "
                        f"{event.kind} of node {event.node} at "
                        f"{event.trigger()} is listed after an event "
                        f"triggering at t={last_time:g}"
                    )
                last_time = event.at

    # ------------------------------------------------------------------
    # Rendering / identity

    def describe(self) -> str:
        """One line per event, for ``repro scenarios show``-style output."""
        lines = [
            f"corruptions at t=0: {self.corruptions}",
        ]
        for event in self.events:
            lines.append(
                f"{event.trigger():>10}  {event.kind} node {event.node}"
            )
        return "\n".join(lines)


#: State machine per kind: (required current state, resulting state).
_TRANSITIONS: Dict[str, Tuple[str, str]] = {
    "crash": ("active", "crashed"),
    "recover": ("crashed", "active"),
    "join": ("dormant", "active"),
    "corrupt": ("active", "corrupted"),
    "restore": ("corrupted", "active"),
}
