"""The timed discrete-event simulator.

:class:`Simulation` wires together the model pieces — hardware clocks,
delay-controlled network, PKI, honest protocol instances, and a Byzantine
behaviour — and runs an execution:

* honest node ``v`` runs a :class:`~repro.sim.runtime.TimedProtocol` behind a
  :class:`~repro.sim.runtime.NodeAPI` backed by ``v``'s hardware clock;
* every message's delay is chosen by the
  :class:`~repro.sim.network.DelayPolicy` and validated against the model;
* faulty nodes are driven by a single
  :class:`~repro.sim.adversary.ByzantineBehavior` (the adversary) through an
  :class:`AdversaryContext` that can send arbitrary messages from any faulty
  identity — subject to the signature-knowledge rule enforced by
  :class:`~repro.sim.knowledge.SignatureKnowledge`.

The run is deterministic given the configuration and all seeds.

Hot path
--------

The main loop is written for throughput: a heap entry is the event
itself (``(time, priority, seq, *fields)``, :mod:`repro.sim.events`), so
a message costs one tuple and no event object; events are dispatched on
the integer kind priority the entry carries (no ``isinstance``), the
pulse-quota stop condition is maintained as a counter instead of an
O(honest) scan per event, and the queue's heap is accessed through a
local hoisted out of the loop.  One rule holds at every per-message
site: *work is done for a consumer only if the consumer exists* — a
record is built for a trace that stores it (``trace.full``,
:class:`~repro.sim.trace.Trace`) or for an adversary hook that
somebody overrode (:func:`_live_hook`), and for nobody else.  Sends
are a fan-out: a broadcast enters the simulation once
(:meth:`Simulation.honest_fanout`; a unicast is its one-destination
case), which hoists everything invariant across destinations and
pushes its entries onto the heap directly.  None of this changes semantics:
event order is still (time, priority, insertion seq), each message
still gets its own ``policy.delay`` call and admissibility check in
ascending ``dst`` order, and pulse outputs are byte-identical across
trace levels.

Telemetry (:mod:`repro.telemetry`) follows the same
zero-cost-when-unused contract as :meth:`Simulation.attach_checks` and
``dynamics=``: with no handle attached every instrumentation site is a
single ``is None`` test on a hoisted local, and with one attached the
hot loop increments pre-hoisted counter slots — never allocating, never
perturbing event order, so instrumented runs stay byte-identical to
bare ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.signatures import Signature
from repro.sim.adversary import ByzantineBehavior
from repro.sim.clocks import HardwareClock
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.events import (
    PRIORITY_ADVERSARY,
    PRIORITY_CHURN,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    EventQueue,
)
from repro.sim.knowledge import SignatureKnowledge
from repro.sim.network import DelayPolicy, MaximumDelayPolicy, NetworkConfig
from repro.sim.runtime import (
    DynamicsHook,
    NodeAPI,
    SimulationChecks,
    TimedProtocol,
)
from repro.sim.trace import (
    DeliveryRecord,
    ProtocolRecord,
    PulseRecord,
    SendRecord,
    TimerRecord,
    Trace,
)
from repro.telemetry.context import active_telemetry


@dataclass
class SimulationResult:
    """Outcome of a run: per-node pulse times plus diagnostics."""

    pulses: Dict[int, List[float]]
    honest: List[int]
    trace: Trace
    warnings: List[str] = field(default_factory=list)
    events_processed: int = 0
    end_time: float = 0.0

    def honest_pulses(self) -> Dict[int, List[float]]:
        """Pulse-time lists restricted to honest nodes."""
        return {v: self.pulses[v] for v in self.honest}


def _live_hook(behavior: Any, name: str):
    """``behavior``'s bound ``name`` hook, or ``None`` if nobody listens.

    A hook is live iff it is overridden: on a subclass, as an instance
    attribute, or on a duck-typed object that never subclassed.  The
    base class's own no-op and ``behavior=None`` both resolve to
    ``None``, so a call site tests one local and builds the hook's
    record only for an observer that exists.
    """
    if behavior is None:
        return None
    hook = getattr(behavior, name)
    if getattr(hook, "__func__", None) is getattr(ByzantineBehavior, name):
        return None
    return hook


class _SimNodeAPI(NodeAPI):
    """The :class:`NodeAPI` implementation backed by the simulator."""

    __slots__ = (
        "_sim", "node_id", "n", "f", "_clock", "_key_pair", "_peers"
    )

    def __init__(self, sim: "Simulation", node_id: int) -> None:
        self._sim = sim
        self.node_id = node_id
        self.n = sim.config.n
        self.f = sim.f
        self._clock = sim.clocks[node_id]
        self._key_pair = sim.pki.key_pair(node_id)
        # Broadcast destinations: everyone else, ascending.
        self._peers = tuple(v for v in range(self.n) if v != node_id)

    def local_time(self) -> float:
        return self._clock.local_time(self._sim.now)

    def set_timer(self, local_when: float, tag: Any) -> None:
        sim = self._sim
        now = sim.now
        real = self._clock.real_time(local_when)
        if real < now - sim.config.tolerance:
            sim.warnings.append(
                f"node {self.node_id}: timer target local {local_when} "
                f"(real {real}) is in the past at {now}"
            )
        # Push the entry in place, as honest_fanout does, no earlier
        # than now.
        queue = sim.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(
            queue._heap,
            (
                now if now > real else real, PRIORITY_TIMER, seq,
                self.node_id, tag, local_when,
            ),
        )
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.incr("timers.set")

    def send(self, dst: int, payload: Any) -> None:
        self._sim.honest_send(self.node_id, dst, payload)

    def broadcast(self, payload: Any) -> None:
        self._sim.honest_fanout(self.node_id, self._peers, payload)

    def sign(self, value: Hashable) -> Signature:
        return self._key_pair.sign(value)

    def pulse(self) -> None:
        self._sim.record_pulse(self.node_id)

    def annotate(self, kind: str, details: Any) -> None:
        sim = self._sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.on_annotate(kind, details)
        checks = sim.checks
        if checks is not None:
            checks.on_annotate(sim.now, self.node_id, kind, details)
        trace = sim.trace
        if trace.full:
            trace.records.append(
                ProtocolRecord(sim.now, self.node_id, kind, details)
            )


class AdversaryContext:
    """What the Byzantine behaviour may see and do.

    The adversary has full visibility (it chose clocks and delays and, being
    rushing, observes all traffic), but its *sends* are checked: honest
    signatures it includes must already be known (no forgery), explicit
    delays must respect the faulty-link bounds, and it can only send from
    corrupted identities.

    ``faulty`` and ``honest`` are immutable views cached on the
    context (a frozenset, and a tuple in ascending order), so a
    behaviour reads them per message without copying;
    :meth:`Simulation.corrupt_node` and :meth:`Simulation.restore_node`,
    the only mutators of the faulty set, refresh them.
    """

    def __init__(self, sim: "Simulation") -> None:
        self._sim = sim
        self._refresh_views()

    def _refresh_views(self) -> None:
        sim = self._sim
        self._faulty = frozenset(sim.faulty)
        self._honest = tuple(sim.honest)

    # -- observation ----------------------------------------------------

    @property
    def now(self) -> float:
        return self._sim.now

    @property
    def config(self) -> NetworkConfig:
        return self._sim.config

    @property
    def n(self) -> int:
        return self._sim.config.n

    @property
    def faulty(self) -> FrozenSet[int]:
        return self._faulty

    @property
    def honest(self) -> Tuple[int, ...]:
        return self._honest

    # -- actions ----------------------------------------------------------

    def sign_as(self, faulty_id: int, value: Hashable) -> Signature:
        """Sign with a corrupted node's secret key."""
        if faulty_id not in self._sim.faulty:
            raise SimulationError(
                f"adversary cannot sign for honest node {faulty_id}"
            )
        return self._sim.pki.key_pair(faulty_id).sign(value)

    def send_from(
        self,
        src: int,
        dst: int,
        payload: Any,
        delay: Optional[float] = None,
    ) -> None:
        """Send ``payload`` from faulty ``src`` to ``dst`` right now.

        ``delay=None`` defers to the delay policy; an explicit delay is
        validated against the faulty-link bounds ``[d - u_tilde, d]``.
        """
        if src not in self._faulty:
            raise SimulationError(
                f"adversary cannot send from honest node {src}"
            )
        self._sim.faulty_fanout(src, (dst,), payload, delay)

    def broadcast_from(
        self,
        src: int,
        payload: Any,
        delay: Optional[float] = None,
        targets: Optional[Iterable[int]] = None,
    ) -> None:
        """Send from faulty ``src`` to ``targets`` (default: all others).

        The sender and the payload's signatures are checked once, before
        the first send; each recipient's delay is validated as it goes.
        """
        if src not in self._faulty:
            raise SimulationError(
                f"adversary cannot send from honest node {src}"
            )
        if targets is None:
            targets = [v for v in range(self._sim.config.n) if v != src]
        self._sim.faulty_fanout(src, targets, payload, delay)

    def wake_at(self, time: float, tag: Any = None) -> None:
        """Request an ``on_wakeup(tag)`` callback at real ``time``."""
        if time < self._sim.now - self._sim.config.tolerance:
            raise SimulationError(
                f"cannot schedule adversary wakeup in the past: {time}"
            )
        self._sim.queue.push(
            max(time, self._sim.now), PRIORITY_ADVERSARY, tag
        )


class Simulation:
    """A single timed execution of a protocol under a chosen adversary."""

    def __init__(
        self,
        config: NetworkConfig,
        clocks: Sequence[HardwareClock],
        protocol_factory,
        faulty: Iterable[int] = (),
        behavior=None,
        delay_policy: Optional[DelayPolicy] = None,
        f: Optional[int] = None,
        trace: Optional[Trace] = None,
        dynamics: Optional[DynamicsHook] = None,
    ) -> None:
        self.config = config
        if len(clocks) != config.n:
            raise ConfigurationError(
                f"need {config.n} clocks, got {len(clocks)}"
            )
        self.clocks = list(clocks)
        self.faulty: Set[int] = set(faulty)
        if any(v < 0 or v >= config.n for v in self.faulty):
            raise ConfigurationError(f"faulty set {self.faulty} out of range")
        self.honest: List[int] = [
            v for v in range(config.n) if v not in self.faulty
        ]
        self.f = f if f is not None else len(self.faulty)
        if len(self.faulty) > self.f:
            raise ConfigurationError(
                f"{len(self.faulty)} corruptions exceed declared f={self.f}"
            )
        self.delay_policy = delay_policy or MaximumDelayPolicy()
        self.pki = PublicKeyInfrastructure(config.n)
        self.knowledge = SignatureKnowledge(self.faulty, config.tolerance)
        self.queue = EventQueue()
        self.trace = trace if trace is not None else Trace()
        self.checks: Optional[SimulationChecks] = None
        # Telemetry: the ambient per-process session (how campaign
        # trials instrument simulations built inside registered
        # builders).  None without one, so uninstrumented runs pay a
        # single `is None` test per site.
        self.telemetry = active_telemetry()
        if self.telemetry is not None:
            self.telemetry.attach(self)
        self.now = 0.0
        self.warnings: List[str] = []
        self.pulses: Dict[int, List[float]] = {
            v: [] for v in range(config.n)
        }
        self.events_processed = 0
        # Pulse-quota bookkeeping for run(max_pulses=...): the number of
        # honest nodes still below the quota, updated by record_pulse so
        # the main loop tests one counter instead of scanning all nodes.
        self._pulse_quota: Optional[int] = None
        self._quota_open = 0
        self._started = False

        self._protocol_factory = protocol_factory
        self._protocols: Dict[int, TimedProtocol] = {}
        self._apis: Dict[int, _SimNodeAPI] = {}
        for v in self.honest:
            self._protocols[v] = protocol_factory(v)
            self._apis[v] = _SimNodeAPI(self, v)

        self.behavior = behavior
        self._adversary_ctx = AdversaryContext(self)
        # The behaviour's live send and pulse hooks (_live_hook),
        # resolved by each run() for the sends and pulses it makes.
        self._on_honest_send = self._on_pulse = None

        # Membership dynamics (churn) install last: the controller may
        # deactivate late joiners and seed absolute-time churn events.
        self.dynamics = dynamics
        if dynamics is not None:
            dynamics.install(self)

    def protocol(self, node: int) -> TimedProtocol:
        """The protocol instance of an honest node (for diagnostics)."""
        return self._protocols[node]

    def attach_checks(self, checks: Optional[SimulationChecks]) -> None:
        """Install (or clear) the streaming conformance observer.

        Must be called before :meth:`run`; the observer then receives
        every honest pulse and protocol annotation of the execution.
        """
        self.checks = checks

    # ------------------------------------------------------------------
    # Membership dynamics (the churn subsystem's mutation surface)
    #
    # These are the only sanctioned ways to change the node set mid-run.
    # All of them keep the hot loop's hoisted references valid: the
    # ``_protocols`` dict, ``faulty`` set, and ``knowledge`` object are
    # mutated in place, never rebound.

    def deactivate_node(self, node: int) -> None:
        """Crash an honest node: it stops executing immediately.

        Pending timers and deliveries addressed to the node are dropped
        lazily when they surface (the main loop already tolerates
        missing protocol instances).  The node's clock keeps running and
        its recorded pulses are preserved, so a later
        :meth:`activate_node` resumes the same pulse count.
        """
        if node in self.faulty:
            raise SimulationError(
                f"cannot crash node {node}: it is Byzantine "
                f"(the adversary, not the scheduler, owns it)"
            )
        if node not in self._protocols:
            raise SimulationError(f"node {node} is already inactive")
        del self._protocols[node]
        del self._apis[node]
        if self.telemetry is not None:
            self.telemetry.incr("dynamics.deactivate")
        quota = self._pulse_quota
        if quota is not None and len(self.pulses[node]) < quota:
            self._quota_open -= 1

    def activate_node(self, node: int, protocol: TimedProtocol) -> None:
        """(Re)start an honest node with a fresh protocol instance.

        Used for crash recovery and late joins; ``protocol.on_start``
        runs immediately at the current simulated time.
        """
        if node in self.faulty:
            raise SimulationError(
                f"cannot activate node {node}: it is Byzantine"
            )
        if node in self._protocols:
            raise SimulationError(f"node {node} is already active")
        self._protocols[node] = protocol
        api = self._apis[node] = _SimNodeAPI(self, node)
        if self.telemetry is not None:
            self.telemetry.incr("dynamics.activate")
        quota = self._pulse_quota
        if quota is not None and len(self.pulses[node]) < quota:
            self._quota_open += 1
        protocol.on_start(api)

    def corrupt_node(self, node: int) -> None:
        """Byzantine-flip an honest node: the adversary takes it over.

        The node's protocol instance is discarded, its identity joins
        the faulty set (the adversary may now sign with its key), and
        the declared resilience budget ``f`` is enforced.
        """
        if node in self.faulty:
            raise SimulationError(f"node {node} is already Byzantine")
        if len(self.faulty) >= self.f:
            raise SimulationError(
                f"corrupting node {node} would exceed the declared "
                f"budget f={self.f}"
            )
        if node in self._protocols:
            self.deactivate_node(node)
        self.faulty.add(node)
        self.knowledge.faulty.add(node)
        self.honest.remove(node)
        self._adversary_ctx._refresh_views()
        if self.telemetry is not None:
            self.telemetry.incr("dynamics.corrupt")

    def restore_node(self, node: int, protocol: TimedProtocol) -> None:
        """Hand a Byzantine node back to the honest side and restart it.

        The inverse of :meth:`corrupt_node` (adversary-handoff
        scenarios): the identity leaves the faulty set — the adversary
        may no longer sign for it — and rejoins as an honest, freshly
        started node.
        """
        if node not in self.faulty:
            raise SimulationError(f"node {node} is not Byzantine")
        self.faulty.discard(node)
        self.knowledge.faulty.discard(node)
        self.honest.append(node)
        self.honest.sort()
        self._adversary_ctx._refresh_views()
        if self.telemetry is not None:
            self.telemetry.incr("dynamics.restore")
        self.activate_node(node, protocol)

    # ------------------------------------------------------------------
    # Message plumbing

    def honest_send(self, src: int, dst: int, payload: Any) -> None:
        """Dispatch a send by an honest node through the delay policy."""
        self.honest_fanout(src, (dst,), payload)

    def honest_fanout(
        self, src: int, dsts: Iterable[int], payload: Any
    ) -> None:
        """Dispatch ``payload`` from honest ``src`` to each of ``dsts``.

        The one honest send path: everything invariant across the
        destinations is hoisted, and each destination then sees, in
        order, ``policy.delay`` → admissibility check → ``SendRecord``
        (when consumed) → queue push → telemetry → the adversary's
        ``on_honest_send``, exactly as a loop of single sends would.
        """
        now = self.now
        config = self.config
        policy_delay = self.delay_policy.delay
        validate_delay = config.validate_delay
        honest_bounds = config.delay_bounds(True)
        faulty_bounds = config.delay_bounds(False)
        faulty = self.faulty
        on_honest_send = self._on_honest_send
        ctx = self._adversary_ctx
        telemetry = self.telemetry
        trace_full = self.trace.full
        trace_records = self.trace.records
        # The SendRecord doubles as the trace entry and the adversary's
        # observation; build it once, and only when someone consumes it.
        recorded = trace_full or on_honest_send is not None
        # Push each entry in place: the sequence counter is re-read per
        # message because on_honest_send may send too.
        queue = self.queue
        heap = queue._heap
        for dst in dsts:
            link_is_honest = dst not in faulty  # src is honest here
            delay = policy_delay(
                config, src, dst, now, payload, link_is_honest
            )
            low, high = honest_bounds if link_is_honest else faulty_bounds
            if not low <= delay <= high:
                # Raises ModelViolation beyond the time tolerance,
                # clamps float noise within it.
                delay = validate_delay(delay, True, link_is_honest)
            if recorded:
                record = SendRecord(now, src, dst, payload, delay, True)
                if trace_full:
                    trace_records.append(record)
            seq = queue._next_seq
            queue._next_seq = seq + 1
            heappush(
                heap, (now + delay, PRIORITY_DELIVERY, seq, src, dst, payload)
            )
            if telemetry is not None:
                telemetry.on_honest_send(src, payload, delay)
            if on_honest_send is not None:
                on_honest_send(ctx, record)

    def faulty_fanout(
        self,
        src: int,
        dsts: Iterable[int],
        payload: Any,
        delay: Optional[float],
    ) -> None:
        """Dispatch ``payload`` from faulty ``src`` to each of ``dsts``.

        The payload is knowledge-checked once (nothing the adversary
        learns changes between the sends of one fan-out); ``delay=None``
        defers each message to the delay policy.
        """
        now = self.now
        self.knowledge.check_payload(payload, now, src)
        config = self.config
        policy_delay = self.delay_policy.delay
        validate_delay = config.validate_delay
        faulty = self.faulty
        # Push in place, as honest_fanout does.
        queue = self.queue
        heap = queue._heap
        telemetry = self.telemetry
        trace_full = self.trace.full
        trace_records = self.trace.records
        for dst in dsts:
            chosen = delay
            if chosen is None:
                chosen = policy_delay(config, src, dst, now, payload, False)
            # The only check on this path: every message pays it.
            chosen = validate_delay(chosen, False, dst not in faulty)
            if trace_full:
                trace_records.append(
                    SendRecord(now, src, dst, payload, chosen, False)
                )
            seq = queue._next_seq
            queue._next_seq = seq + 1
            heappush(
                heap,
                (now + chosen, PRIORITY_DELIVERY, seq, src, dst, payload),
            )
            if telemetry is not None:
                telemetry.on_faulty_send(chosen)

    def record_pulse(self, node: int) -> None:
        now = self.now
        pulse_list = self.pulses[node]
        pulse_list.append(now)
        index = len(pulse_list)
        if index == self._pulse_quota:
            self._quota_open -= 1
        local = self.clocks[node].local_time(now)
        if self.telemetry is not None:
            self.telemetry.incr("pulses.recorded")
        if self.checks is not None:
            self.checks.on_pulse(now, node, index, local)
        if self.dynamics is not None:
            self.dynamics.on_pulse(self, now, node, index)
        trace = self.trace
        if trace.full:
            trace.records.append(PulseRecord(now, node, index, local))
        on_pulse = self._on_pulse
        if on_pulse is not None and node not in self.faulty:
            on_pulse(self._adversary_ctx, node, index, now)

    # ------------------------------------------------------------------
    # Main loop

    def run(
        self,
        until: Optional[float] = None,
        max_pulses: Optional[int] = None,
        max_events: int = 5_000_000,
    ) -> SimulationResult:
        """Execute until quiescence, a time horizon, or a pulse quota.

        Parameters
        ----------
        until:
            Stop once simulated real time would exceed this value.
        max_pulses:
            Stop once every honest node has generated this many pulses.
        max_events:
            Hard safety cap on processed events.
        """
        if until is None and max_pulses is None:
            raise ConfigurationError(
                "provide a stop condition (until / max_pulses)"
            )
        self._pulse_quota = max_pulses
        if max_pulses is not None:
            # Only *active* honest nodes gate the quota: a node crashed
            # (or not yet joined) under a churn schedule re-enters the
            # count when it is activated.  Without dynamics every honest
            # node is active, matching the historical behaviour.
            self._quota_open = sum(
                1
                for v in self.honest
                if v in self._protocols and len(self.pulses[v]) < max_pulses
            )
        # Hooks are resolved once a run, before any protocol starts: a
        # behaviour that gains or loses one between runs is heard, or
        # not, from the next run on.
        behavior = self.behavior
        self._on_honest_send = _live_hook(behavior, "on_honest_send")
        self._on_pulse = _live_hook(behavior, "on_pulse")
        on_deliver = _live_hook(behavior, "on_deliver")
        if not self._started:
            # Once per Simulation: a later run() resumes from the queue.
            self._started = True
            for v in self.honest:
                protocol = self._protocols.get(v)
                if protocol is not None:  # dormant late joiners skip start
                    protocol.on_start(self._apis[v])
            if behavior is not None:
                behavior.on_start(self._adversary_ctx)

        # Hot loop: everything dereferenced per event is hoisted into
        # locals; one heappop yields the whole event (a cancelled entry
        # is looked up only while some entry is cancelled); dispatch
        # keys on the entry's priority int and unpacks its fields.
        heap = self.queue._heap
        cancelled = self.queue._cancelled
        protocols = self._protocols
        apis = self._apis
        faulty = self.faulty
        knowledge = self.knowledge
        ctx = self._adversary_ctx
        trace_full = self.trace.full
        trace_records = self.trace.records
        # Telemetry hot-path slots: the loop indexes `telem_dispatch`
        # by event priority and bumps plain dict entries — no method
        # calls, no allocation.  Both are None when uninstrumented.
        telemetry = self.telemetry
        telem_counters = telemetry.counters if telemetry is not None else None
        telem_dispatch = telemetry.dispatch if telemetry is not None else None
        # Quota only gates when honest nodes exist (matches the historical
        # `self.honest and all(...)` check: an all-faulty run ignores it).
        quota_gated = max_pulses is not None and bool(self.honest)
        events_processed = self.events_processed
        until_cutoff = None if until is None else until + self.config.tolerance

        try:
            while heap:
                if quota_gated and self._quota_open == 0:
                    break
                entry = heappop(heap)
                if cancelled and entry[2] in cancelled:
                    cancelled.discard(entry[2])
                    if telem_counters is not None:
                        telem_counters["events.cancelled.lazy"] += 1
                    continue
                time = entry[0]
                if until_cutoff is not None and time > until_cutoff:
                    # Back where it was: seq is unique, so the order of
                    # what is left is unchanged.
                    heappush(heap, entry)
                    break
                priority = entry[1]
                self.now = time
                events_processed += 1
                if telem_dispatch is not None:
                    telem_dispatch[priority] += 1
                if events_processed > max_events:
                    raise SimulationError(
                        f"event cap of {max_events} exceeded — "
                        f"runaway execution?"
                    )
                if priority == PRIORITY_DELIVERY:
                    _t, _p, _s, src, dst, payload = entry
                    if trace_full:
                        record = DeliveryRecord(time, src, dst, payload)
                        trace_records.append(record)
                    if dst in faulty:
                        # Knowledge pools across faulty nodes at
                        # reception time.
                        knowledge.learn_payload(payload, time)
                        if telem_counters is not None:
                            telem_counters[
                                "messages.delivered.adversary"
                            ] += 1
                        if on_deliver is not None:
                            # One record serves the trace and the hook.
                            if not trace_full:
                                record = DeliveryRecord(
                                    time, src, dst, payload
                                )
                            on_deliver(ctx, record)
                    else:
                        protocol = protocols.get(dst)
                        if protocol is not None:
                            if telem_counters is not None:
                                telem_counters[
                                    "messages.delivered.honest"
                                ] += 1
                            protocol.on_message(apis[dst], src, payload)
                        elif telem_counters is not None:
                            telem_counters["messages.dropped.inactive"] += 1
                elif priority == PRIORITY_TIMER:
                    _t, _p, _s, node, tag, local_time = entry
                    if trace_full:
                        trace_records.append(
                            TimerRecord(time, node, tag, local_time)
                        )
                    protocol = protocols.get(node)
                    if protocol is not None:
                        protocol.on_timer(apis[node], tag)
                    elif telem_counters is not None:
                        telem_counters["timers.dropped.inactive"] += 1
                elif priority == PRIORITY_ADVERSARY:
                    if behavior is not None:
                        behavior.on_wakeup(ctx, entry[3])
                elif priority == PRIORITY_CHURN:
                    # Reached only for events pushed by a DynamicsHook,
                    # so the hook is present whenever this fires.
                    self.dynamics.apply(self, entry[3])
                else:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"unknown event priority {priority}: {entry!r}"
                    )
        finally:
            self.events_processed = events_processed
            self._pulse_quota = None
            self._quota_open = 0
            if telemetry is not None:
                telemetry.observe_span("sim.run")
                telemetry.finalize(self)

        return SimulationResult(
            pulses={v: list(times) for v, times in self.pulses.items()},
            honest=list(self.honest),
            trace=self.trace,
            warnings=list(self.warnings),
            events_processed=self.events_processed,
            end_time=self.now,
        )
