"""Protocol-facing runtime interface.

Timed protocols (Algorithm CPS and the baselines) are written as
state machines against :class:`NodeAPI`, which the event engine
(:mod:`repro.sim.scheduler`) implements.  The lower-bound construction
(:mod:`repro.core.lower_bound`) runs on that engine too, so the *same*
protocol code runs in honest executions and in Theorem 5's, where a
faulty node must simulate its own honest behaviour.

A protocol may only observe time through :meth:`NodeAPI.local_time` and may
only schedule future work through local-time timers; it has no access to
real time, matching the model ("nodes have no access to the true time").

Observation hooks stack on this interface without touching protocol
code: ``attach_checks`` (streaming conformance monitors), ``dynamics=``
(membership churn), and the telemetry handle
(:mod:`repro.telemetry`, adopted from the ambient session) are all
zero-cost when unused — each instrumentation site in the scheduler is
one ``is None`` test — and none of them may perturb event order.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable

from repro.crypto.signatures import Signature


class SimulationChecks(abc.ABC):
    """Streaming observer the simulator feeds as an execution unfolds.

    Conformance monitors (:mod:`repro.checks`) implement this interface
    and are attached to either engine through its ``attach_checks``
    (:meth:`Simulation.attach_checks`).  The hook is fed directly from
    the scheduler — *independently of the trace level* — so
    theorem-bound monitors run at ``trace="none"`` without forcing full
    per-message trace allocation.

    Implementations must be passive: they may accumulate state and
    record violations, but must not mutate the simulation.  The
    scheduler guarantees the callbacks do not perturb event order, so
    runs with and without checks produce identical pulse streams.
    """

    __slots__ = ()

    @abc.abstractmethod
    def on_pulse(
        self, time: float, node: int, index: int, local_time: float
    ) -> None:
        """An honest node generated its ``index``-th pulse (1-based)."""

    def on_annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        """A protocol-specific annotation (same feed as the trace's
        :class:`~repro.sim.trace.ProtocolRecord`, stamped with the real
        time the scheduler observed)."""


class DynamicsHook(abc.ABC):
    """Membership-dynamics driver the simulator consults during a run.

    Churn controllers (:mod:`repro.dynamics`) implement this interface
    and are attached to a :class:`~repro.sim.scheduler.Simulation` via
    its ``dynamics=`` parameter.  The hook is the *only* sanctioned way
    to mutate the node set mid-run: the scheduler calls :meth:`install`
    once at construction time (to seed absolute-time churn events and
    deactivate late joiners), :meth:`on_pulse` from the pulse-recording
    path (to resolve pulse-relative triggers), and :meth:`apply` when a
    churn event reaches the front of the queue.

    When no hook is attached every call site is a single ``is None``
    test, so static scenarios pay nothing and stay byte-identical.
    """

    __slots__ = ()

    @abc.abstractmethod
    def install(self, sim: Any) -> None:
        """Called once from ``Simulation.__init__`` (before any event)."""

    @abc.abstractmethod
    def on_pulse(self, sim: Any, time: float, node: int, index: int) -> None:
        """An honest node generated its ``index``-th pulse (1-based)."""

    @abc.abstractmethod
    def apply(self, sim: Any, action: Any) -> None:
        """Execute one scheduled membership change at ``sim.now``."""


class NodeAPI(abc.ABC):
    """Capabilities the runtime grants to an honest protocol instance."""

    __slots__ = ()

    node_id: int
    n: int
    f: int

    @abc.abstractmethod
    def local_time(self) -> float:
        """Current hardware-clock reading ``H_v(now)``."""

    @abc.abstractmethod
    def set_timer(self, local_when: float, tag: Any) -> None:
        """Request ``on_timer(tag)`` when the local clock reads
        ``local_when``.

        Targets at or before the current local time fire immediately (at the
        current instant); the runtime records such occurrences as warnings
        since well-parameterized protocols never need them.
        """

    @abc.abstractmethod
    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to ``dst`` over the authenticated channel."""

    @abc.abstractmethod
    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every node except self."""

    @abc.abstractmethod
    def sign(self, value: Hashable) -> Signature:
        """Produce this node's signature on ``value``."""

    @abc.abstractmethod
    def pulse(self) -> None:
        """Generate the next pulse (records the pulse time)."""

    @abc.abstractmethod
    def annotate(self, kind: str, details: Any) -> None:
        """Attach a protocol-specific record to the execution trace."""


class TimedProtocol(abc.ABC):
    """Base class for message-driven timed protocols.

    The runtime calls :meth:`on_start` once at real time 0, then
    :meth:`on_message` / :meth:`on_timer` as events arrive.  Handlers must
    not block; all waiting is expressed through timers.
    """

    @abc.abstractmethod
    def on_start(self, api: NodeAPI) -> None:
        """Initialize; called once when the execution begins."""

    @abc.abstractmethod
    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        """Handle a delivered message.

        ``sender`` is the channel-authenticated identity of the node the
        message physically came from (channels are authenticated, so even a
        faulty sender cannot spoof this; it *can* relay other nodes'
        signatures inside ``payload``).
        """

    @abc.abstractmethod
    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        """Handle a timer previously set via :meth:`NodeAPI.set_timer`."""
