"""Integration tests for the timed discrete-event simulator."""

import pytest

from repro import scenarios
from repro.build import build_simulation
from repro.crypto.pki import PublicKeyInfrastructure
from repro.dynamics import ChurnController, FaultEvent, FaultSchedule
from repro.sim import scheduler
from repro.sim.adversary import (
    ByzantineBehavior,
    ScheduledSendAdversary,
)
from repro.sim.clocks import HardwareClock
from repro.sim.errors import (
    ConfigurationError,
    ForgeryError,
    ModelViolation,
    SimulationError,
)
from repro.sim.events import PRIORITY_ADVERSARY, PRIORITY_CHURN
from repro.sim.network import DelayPolicy, MaximumDelayPolicy, NetworkConfig
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation, _SimNodeAPI
from repro.sim.trace import DeliveryRecord, SendRecord, Trace
from repro.telemetry import Telemetry, telemetry_session


class EchoProtocol(TimedProtocol):
    """Test protocol: pulse at fixed local period; echo received payloads
    once; record everything."""

    def __init__(self, period: float = 10.0) -> None:
        self.period = period
        self.received = []
        self.signed = []

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(self.period, "tick")

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        self.received.append((sender, payload, api.local_time()))

    def on_timer(self, api: NodeAPI, tag) -> None:
        api.pulse()
        if len(self.received) == 0:
            api.broadcast(("hello", api.node_id))
        api.set_timer(api.local_time() + self.period, "tick")


def build(n=3, faulty=(), behavior=None, clocks=None, policy=None, f=None):
    config = NetworkConfig(n, d=1.0, u=0.2)
    clocks = clocks or [HardwareClock.constant_rate() for _ in range(n)]
    return Simulation(
        config,
        clocks,
        protocol_factory=lambda v: EchoProtocol(),
        faulty=faulty,
        behavior=behavior,
        delay_policy=policy or MaximumDelayPolicy(),
        f=f,
    )


class TestBasicMechanics:
    def test_requires_stop_condition(self):
        with pytest.raises(ConfigurationError):
            build().run()

    def test_clock_count_must_match(self):
        config = NetworkConfig(3, d=1.0, u=0.2)
        with pytest.raises(ConfigurationError):
            Simulation(
                config,
                [HardwareClock.constant_rate()],
                protocol_factory=lambda v: EchoProtocol(),
            )

    def test_faulty_count_checked_against_f(self):
        with pytest.raises(ConfigurationError):
            build(faulty=[0, 1], f=1)

    def test_faulty_ids_in_range(self):
        with pytest.raises(ConfigurationError):
            build(faulty=[7])

    def test_pulses_recorded_per_node(self):
        sim = build()
        result = sim.run(max_pulses=3)
        for v in range(3):
            assert len(result.pulses[v]) >= 3
            assert result.pulses[v][0] == pytest.approx(10.0)

    def test_max_pulses_stops_promptly(self):
        result = build().run(max_pulses=2)
        assert all(len(result.pulses[v]) == 2 for v in range(3))

    def test_until_stops_by_time(self):
        result = build().run(until=25.0)
        assert result.end_time <= 25.0 + 1e-9
        assert all(len(result.pulses[v]) == 2 for v in range(3))

    def test_event_cap_raises(self):
        with pytest.raises(SimulationError):
            build().run(max_pulses=1000, max_events=10)

    def test_broadcast_reaches_all_others(self):
        sim = build()
        sim.run(max_pulses=2)
        for v in range(3):
            protocol = sim.protocol(v)
            senders = {sender for sender, _, _ in protocol.received}
            assert senders == {w for w in range(3) if w != v}

    def test_delivery_delay_respected(self):
        sim = build()
        result = sim.run(max_pulses=2)
        sends = {
            (r.src, r.dst): r.time for r in result.trace.of_type(SendRecord)
        }
        for record in result.trace.of_type(DeliveryRecord):
            assert record.time == pytest.approx(
                sends[(record.src, record.dst)] + 1.0
            )

    def test_local_time_follows_clock(self):
        clocks = [
            HardwareClock.constant_rate(1.1, theta=1.1),
            HardwareClock.constant_rate(1.0, theta=1.1),
            HardwareClock.constant_rate(1.0, theta=1.1),
        ]
        sim = build(clocks=clocks)
        result = sim.run(max_pulses=1)
        # Fast node pulses first: local 10 reached at t = 10/1.1.
        assert result.pulses[0][0] == pytest.approx(10.0 / 1.1)
        assert result.pulses[1][0] == pytest.approx(10.0)

    def test_past_timer_warns_but_fires(self):
        class PastTimer(TimedProtocol):
            def on_start(self, api):
                api.set_timer(5.0, "future")

            def on_message(self, api, sender, payload):
                pass

            def on_timer(self, api, tag):
                if tag == "future":
                    api.set_timer(1.0, "past")  # already passed
                else:
                    api.pulse()

        config = NetworkConfig(1, d=1.0, u=0.0)
        sim = Simulation(
            config,
            [HardwareClock.constant_rate()],
            protocol_factory=lambda v: PastTimer(),
        )
        result = sim.run(max_pulses=1)
        assert len(result.pulses[0]) == 1
        assert any("past" in w for w in result.warnings)


class TestAdversaryContext:
    def test_scheduled_sends_are_delivered(self):
        def payload_fn(ctx):
            return ("fake", 2)

        behavior = ScheduledSendAdversary({3.0: [(2, 0, payload_fn, 1.0)]})
        sim = build(faulty=[2], behavior=behavior)
        sim.run(max_pulses=2)
        received = sim.protocol(0).received
        assert (2, ("fake", 2), 4.0) in received

    def test_adversary_cannot_send_from_honest(self):
        class BadBehavior(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.send_from(0, 1, "spoof")

        with pytest.raises(SimulationError):
            build(faulty=[2], behavior=BadBehavior()).run(max_pulses=1)

    def test_adversary_cannot_sign_for_honest(self):
        class BadSigner(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.sign_as(0, "m")

        with pytest.raises(SimulationError):
            build(faulty=[2], behavior=BadSigner()).run(max_pulses=1)

    def test_forgery_is_blocked(self):
        class Forger(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.wake_at(0.5, "go")

            def on_wakeup(self, ctx, tag):
                # Node 0's signature was never delivered to a faulty node.
                from repro.crypto.pki import PublicKeyInfrastructure

                other = PublicKeyInfrastructure(3)
                ctx.send_from(2, 0, other.key_pair(0).sign("m"))

        with pytest.raises(ForgeryError):
            build(faulty=[2], behavior=Forger()).run(max_pulses=2)

    def test_replaying_learned_signature_is_allowed(self):
        sent = []

        class Replayer(ByzantineBehavior):
            def on_deliver(self, ctx, record):
                if not sent:
                    sent.append(record.payload)
                    ctx.send_from(2, 0, record.payload)

        class Signer(EchoProtocol):
            def on_timer(self, api, tag):
                api.pulse()
                api.broadcast(api.sign(("v", api.node_id)))
                api.set_timer(api.local_time() + self.period, "tick")

        config = NetworkConfig(3, d=1.0, u=0.2)
        sim = Simulation(
            config,
            [HardwareClock.constant_rate() for _ in range(3)],
            protocol_factory=lambda v: Signer(),
            faulty=[2],
            behavior=Replayer(),
        )
        sim.run(max_pulses=3)
        assert sent  # the replay happened without ForgeryError

    def test_adversary_observes_pulses(self):
        seen = []

        class Observer(ByzantineBehavior):
            def on_pulse(self, ctx, node, index, time):
                seen.append((node, index, time))

        build(faulty=[2], behavior=Observer()).run(max_pulses=2)
        assert (0, 1, 10.0) in seen

    def test_wakeup_in_past_rejected(self):
        class TimeTraveller(ByzantineBehavior):
            def on_pulse(self, ctx, node, index, time):
                ctx.wake_at(time - 5.0, "nope")

        with pytest.raises(SimulationError):
            build(faulty=[2], behavior=TimeTraveller()).run(max_pulses=2)

    def test_explicit_delay_validated(self):
        class TooFast(ByzantineBehavior):
            def on_start(self, ctx):
                ctx.send_from(2, 0, "m", delay=0.1)

        from repro.sim.errors import ModelViolation

        with pytest.raises(ModelViolation):
            build(faulty=[2], behavior=TooFast()).run(max_pulses=1)

    def test_views_follow_corrupt_and_restore(self):
        class Holder(ByzantineBehavior):
            def on_start(self, ctx):
                self.ctx = ctx

        behavior = Holder()
        sim = build(n=5, faulty=[3], behavior=behavior, f=2)
        sim.run(max_pulses=1)
        ctx = behavior.ctx

        def agree():
            assert ctx.faulty == sim.faulty
            assert ctx.honest == tuple(sorted(sim.honest))
            # Cached: the same objects on every read, not copies.
            assert ctx.faulty is ctx.faulty and ctx.honest is ctx.honest

        agree()
        sim.corrupt_node(1)
        agree()
        assert ctx.faulty == {1, 3} and ctx.honest == (0, 2, 4)
        sim.restore_node(1, EchoProtocol())
        agree()
        assert ctx.faulty == {3} and ctx.honest == (0, 1, 2, 4)
        sim.run(max_pulses=3)
        agree()
        with pytest.raises(AttributeError):
            ctx.faulty.add(0)
        with pytest.raises(AttributeError):
            ctx.honest.append(3)
        with pytest.raises(TypeError):
            ctx.honest[0] = 3
        with pytest.raises(AttributeError):
            ctx.faulty = {0}


def _counted(monkeypatch, name):
    """Every ``name`` record the scheduler constructs from here on."""
    made = []
    real = getattr(scheduler, name)

    def construct(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(scheduler, name, construct)
    return made


def _ids(records):
    return [id(record) for record in records]


class TestHookLiveness:
    """Per-message records exist only for a consumer that exists: the
    trace at ``full``, or an adversary hook somebody overrode."""

    CASE = {"n": 6, "delay": "random", "drift": "extreme"}

    def test_records_are_built_only_for_a_live_hook(self, monkeypatch):
        sends = _counted(monkeypatch, "SendRecord")
        deliveries = _counted(monkeypatch, "DeliveryRecord")
        silent = build_simulation(
            {**self.CASE, "adversary": "silent"}, seed=3, trace="none"
        ).simulation
        assert silent.run(max_pulses=4).events_processed > 100
        assert sends == [] and deliveries == []

        replay = build_simulation(
            {**self.CASE, "adversary": "replay"}, seed=3, trace="none"
        ).simulation
        heard = []
        on_deliver = replay.behavior.on_deliver
        replay.behavior.on_deliver = lambda ctx, record: (
            heard.append(record), on_deliver(ctx, record)
        )
        replay.run(max_pulses=4)
        assert sends == []  # replayed sends are recorded at full only
        # One record per call, and the very object the hook was given.
        assert _ids(deliveries) == _ids(heard) != []

    def test_hooks_get_the_trace_records_at_any_level(self):
        class Observer(ByzantineBehavior):
            def __init__(self):
                self.sends, self.deliveries = [], []

            def on_honest_send(self, ctx, record):
                self.sends.append(record)

            def on_deliver(self, ctx, record):
                self.deliveries.append(record)

        def run(level):
            sim = build_simulation(
                {**self.CASE, "adversary": "silent"}, seed=3, trace=level
            ).simulation
            sim.behavior = observer = Observer()
            return sim, observer, sim.run(max_pulses=3)

        sim, lean, lean_result = run("none")
        full_sim, full, full_result = run("full")
        assert lean_result.pulses == full_result.pulses
        traced_sends = list(full_sim.trace.of_type(SendRecord))
        traced_deliveries = [
            record
            for record in full_sim.trace.of_type(DeliveryRecord)
            if record.dst in full_sim.faulty
        ]
        assert lean.sends == traced_sends != []
        assert lean.deliveries == traced_deliveries != []
        assert not list(sim.trace.of_type(SendRecord))
        # At full the hook's object *is* the trace's: built once.
        assert _ids(full.sends) == _ids(traced_sends)
        assert _ids(full.deliveries) == _ids(traced_deliveries)

    def test_hooks_are_resolved_by_each_run(self):
        """A send or pulse hook gained between two runs of one
        simulation is heard from the second on; one lost is not."""
        behavior = ByzantineBehavior()
        sim = Simulation(
            NetworkConfig(5, d=1.0, u=0.2),
            [HardwareClock.constant_rate() for _ in range(5)],
            protocol_factory=lambda v: _Chatter(_fan_broadcast),
            faulty=(4,),
            behavior=behavior,
        )
        sends, pulses = [], []
        sim.run(until=15.0)
        assert sim.pulses[0] and sends == pulses == []
        behavior.on_honest_send = lambda ctx, record: sends.append(
            record.time
        )
        behavior.on_pulse = lambda ctx, node, index, time: pulses.append(
            time
        )
        sim.run(until=35.0)
        assert sends and pulses
        assert min(sends + pulses) > 15.0
        heard = len(sends), len(pulses)
        del behavior.on_honest_send, behavior.on_pulse
        before = len(sim.pulses[0])
        sim.run(until=55.0)
        assert len(sim.pulses[0]) > before
        assert (len(sends), len(pulses)) == heard


class _Chatter(TimedProtocol):
    """Pulse each period with a hello to all; echo each origin's first
    hello to all.  ``fan(api, payload)`` is how "to all" is sent."""

    def __init__(self, fan) -> None:
        self.fan = fan
        self.echoed = set()

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(10.0, "tick")

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        if payload[0] == "hello" and payload[1:] not in self.echoed:
            self.echoed.add(payload[1:])
            self.fan(api, ("echo",) + payload[1:] + (api.node_id,))

    def on_timer(self, api: NodeAPI, tag) -> None:
        api.pulse()
        self.fan(api, ("hello", api.node_id, api.local_time()))
        api.set_timer(api.local_time() + 10.0, "tick")


def _fan_broadcast(api, payload):
    api.broadcast(payload)


def _fan_unicast(api, payload):
    for dst in range(api.n):
        if dst != api.node_id:
            api.send(dst, payload)


def _rush(ctx, record):
    """Answer an honest-to-honest send from inside the send itself, at
    a policy-chosen delay: the sends (and a stateful policy's draws)
    interleave with the fan-out that triggered them."""
    if record.dst in ctx.honest:
        ctx.send_from(4, record.dst, ("rush", record.src, record.dst))


class _RushFromSend(ByzantineBehavior):
    def on_honest_send(self, ctx, record):
        _rush(ctx, record)


def _rush_by_instance_attribute():
    behavior = ByzantineBehavior()
    behavior.on_honest_send = _rush
    return behavior


class _DuckRusher:
    """Has the five hooks, never subclassed ``ByzantineBehavior``."""

    def on_start(self, ctx):
        pass

    def on_honest_send(self, ctx, record):
        _rush(ctx, record)

    def on_deliver(self, ctx, record):
        pass

    def on_wakeup(self, ctx, tag):
        pass

    def on_pulse(self, ctx, node, index, time):
        pass


#: Every way a behaviour can (or can not) listen to a hook.
BEHAVIOR_SHAPES = {
    "subclass": _RushFromSend,
    "instance-attribute": _rush_by_instance_attribute,
    "duck-typed": _DuckRusher,
    "none": lambda: None,
}


def _queue_state(sim):
    """What is still queued when the run stops, and under which seqs."""
    return list(sim.queue._heap), sim.queue._next_seq


DELAY_KEYS = scenarios.REGISTRY.keys("delay")


class TestFanOutEquivalence:
    """A broadcast is exactly a loop of unicast sends, ascending dst."""

    @staticmethod
    def chatter_run(delay_key, fan, shape="subclass", trace="full"):
        sim = Simulation(
            NetworkConfig(5, d=1.0, u=0.2, u_tilde=0.5),
            [HardwareClock.constant_rate(1.0 + 0.001 * v) for v in range(5)],
            protocol_factory=lambda v: _Chatter(fan),
            faulty=[4],
            behavior=BEHAVIOR_SHAPES[shape](),
            delay_policy=scenarios.create("delay", delay_key, 5),
            trace=Trace(trace),
        )
        result = sim.run(max_pulses=3)
        return sim, result

    @pytest.mark.parametrize("delay_key", DELAY_KEYS)
    def test_adversary_sending_inside_the_send(self, delay_key):
        one, one_result = self.chatter_run(delay_key, _fan_broadcast)
        many, many_result = self.chatter_run(delay_key, _fan_unicast)
        assert one.trace.records == many.trace.records
        assert any(
            isinstance(r, SendRecord) and not r.src_honest
            for r in one.trace.records
        )
        assert _queue_state(one) == _queue_state(many)
        assert one_result.pulses == many_result.pulses
        assert one_result.events_processed == many_result.events_processed

    @pytest.mark.parametrize("delay_key", DELAY_KEYS)
    @pytest.mark.parametrize("shape", BEHAVIOR_SHAPES)
    def test_every_behaviour_shape(self, shape, delay_key):
        """A hook runs iff it is overridden, however that was done, and
        with no record in the trace to pay for it."""
        one, one_result = self.chatter_run(
            delay_key, _fan_broadcast, shape, "none"
        )
        many, many_result = self.chatter_run(
            delay_key, _fan_unicast, shape, "none"
        )
        assert _queue_state(one) == _queue_state(many)
        assert one_result.pulses == many_result.pulses
        assert one_result.events_processed == many_result.events_processed
        _unheard, quiet = self.chatter_run(
            delay_key, _fan_broadcast, "none", "none"
        )
        rushed = one_result.events_processed > quiet.events_processed
        assert rushed == (shape != "none")

    @pytest.mark.parametrize("delay_key", DELAY_KEYS)
    def test_cps_under_rushing_echo(self, delay_key, monkeypatch):
        case = {"n": 6, "adversary": "rushing-echo", "delay": delay_key,
                "u_tilde": 0.3}

        def run():
            built = build_simulation(case, seed=3, trace="full")
            result = built.simulation.run(max_pulses=4)
            return built.simulation, result

        one, one_result = run()
        monkeypatch.setattr(_SimNodeAPI, "broadcast", _fan_unicast)
        many, many_result = run()
        assert one.trace.records == many.trace.records
        assert _queue_state(one) == _queue_state(many)
        assert one_result.pulses == many_result.pulses

    def test_inadmissible_delay_raises_at_its_destination(self):
        class BadAtTwo(DelayPolicy):
            def delay(self, config, src, dst, send_time, payload, honest):
                if dst == 1:
                    return config.d + 1e-12  # float noise: clamped
                return 5.0 if dst == 2 else config.d

        sim = Simulation(
            NetworkConfig(4, d=1.0, u=0.2),
            [HardwareClock.constant_rate() for _ in range(4)],
            protocol_factory=lambda v: _Chatter(_fan_broadcast),
            delay_policy=BadAtTwo(),
        )
        with pytest.raises(ModelViolation) as raised:
            sim.run(max_pulses=1)
        assert str(raised.value) == (
            "delay 5.0 outside [0.8, 1.0] "
            "(src_honest=True, dst_honest=True)"
        )
        # Node 0's broadcast got as far as dst 1 and stopped at dst 2.
        sends = sim.trace.of_type(SendRecord)
        assert [(r.src, r.dst, r.delay) for r in sends] == [(0, 1, 1.0)]
        assert len(sim.queue._heap) == 3 + 1  # the other ticks + one send


class TestBroadcastFrom:
    def test_checks_run_once_before_the_first_send(self):
        forged = PublicKeyInfrastructure(3).key_pair(0).sign("m")
        calls = []

        class Broadcaster(ByzantineBehavior):
            def __init__(self, src, payload):
                self.src, self.payload = src, payload

            def on_start(self, ctx):
                ctx.broadcast_from(self.src, self.payload)

        sim = build(faulty=[2], behavior=Broadcaster(2, ("fine", 2)))
        check = sim.knowledge.check_payload
        sim.knowledge.check_payload = lambda *a: (
            calls.append(a), check(*a)
        )
        sim.run(max_pulses=1)
        assert len(calls) == 1
        assert [r.dst for r in sim.trace.of_type(SendRecord)][:2] == [0, 1]

        for src, payload, error in (
            (0, "spoof", SimulationError),
            (2, forged, ForgeryError),
        ):
            sim = build(faulty=[2], behavior=Broadcaster(src, payload))
            with pytest.raises(error):
                sim.run(max_pulses=1)
            # Raised before the first send.
            assert not list(sim.trace.of_type(SendRecord))


class _Waker(ByzantineBehavior):
    """Asks for a wakeup at each ``(time, tag)`` and records the tags."""

    def __init__(self, wakeups):
        self.wakeups = wakeups
        self.woken = []

    def on_start(self, ctx):
        for time, tag in self.wakeups:
            ctx.wake_at(time, tag)

    def on_wakeup(self, ctx, tag):
        self.woken.append(tag)


class TestCancelledEntries:
    """The main loop's cancelled-entry branch, which no workload takes:
    an entry cancelled through ``sim.queue.cancel`` is dropped unseen
    and uncounted when it reaches the front."""

    @staticmethod
    def two_stage_run(wakeups, crashes, cancel=()):
        """Run to t=1 (the behaviour's wakeups are then queued), cancel
        the queued entries that ``cancel`` picks, and run to t=40."""
        controller = ChurnController(
            FaultSchedule(tuple(
                FaultEvent("crash", node, at=at) for node, at in crashes
            )),
            None,
        )
        behavior = _Waker(wakeups)
        telemetry = Telemetry(label="test")
        with telemetry_session(telemetry):
            sim = Simulation(
                NetworkConfig(3, d=1.0, u=0.2),
                [HardwareClock.constant_rate() for _ in range(3)],
                protocol_factory=lambda v: EchoProtocol(),
                behavior=behavior,
                f=1,
                dynamics=controller,
            )
            sim.run(until=1.0)
            for pick in cancel:
                (handle,) = [e[2] for e in sim.queue._heap if pick(e)]
                assert sim.queue.cancel(handle)
                assert not sim.queue.cancel(handle)  # already cancelled
            result = sim.run(until=40.0)
        return behavior, controller, result, telemetry.as_dict()

    def test_cancelled_wakeup_and_churn_event_never_run(self):
        behavior, controller, result, snapshot = self.two_stage_run(
            [(3.0, "doomed"), (4.0, "kept")],
            [(0, 5.0)],
            cancel=(
                lambda e: e[1] == PRIORITY_ADVERSARY and e[3] == "doomed",
                lambda e: e[1] == PRIORITY_CHURN,
            ),
        )
        assert behavior.woken == ["kept"]
        assert controller.applied == []
        # Node 0 was never crashed: it pulsed as often as its peers.
        assert len({len(times) for times in result.pulses.values()}) == 1
        # Exactly the run in which neither entry was ever queued.
        _b, _c, bare, bare_snapshot = self.two_stage_run(
            [(4.0, "kept")], []
        )
        assert result.events_processed == bare.events_processed
        assert result.pulses == bare.pulses
        counters = snapshot["counters"]
        assert counters["events.dispatched.adversary"] == 1
        assert "events.dispatched.churn" not in counters
        assert counters["events.cancelled.lazy"] == 2
        assert snapshot["gauges"]["events.cancelled.requested"] == 2
        assert bare_snapshot["counters"]["events.cancelled.lazy"] == 0
        assert bare_snapshot["gauges"]["events.cancelled.requested"] == 0
