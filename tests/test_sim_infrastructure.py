"""Unit tests for events, network/delay policies, knowledge, and traces."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.build import build_simulation
from repro.crypto.pki import PublicKeyInfrastructure
from repro.sim.errors import ConfigurationError, ForgeryError, ModelViolation
from repro.sim.events import (
    PRIORITY_ADVERSARY,
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    EventQueue,
)
from repro.sim.knowledge import SignatureKnowledge
from repro.sim.network import (
    BiasedPartitionDelayPolicy,
    ConstantFractionDelayPolicy,
    MaximumDelayPolicy,
    MinimumDelayPolicy,
    NetworkConfig,
    RandomDelayPolicy,
    SkewingDelayPolicy,
)
from repro.sim.trace import (
    ProtocolRecord,
    PulseRecord,
    SendRecord,
    TimerRecord,
    Trace,
)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, PRIORITY_TIMER, "late")
        queue.push(1.0, PRIORITY_TIMER, "early")
        assert queue.pop() == (1.0, "early")
        assert queue.pop() == (2.0, "late")

    def test_timers_before_deliveries_at_equal_time(self):
        queue = EventQueue()
        queue.push(1.0, PRIORITY_DELIVERY, "delivery")
        queue.push(1.0, PRIORITY_TIMER, "timer")
        queue.push(1.0, PRIORITY_ADVERSARY, "adversary")
        assert [queue.pop()[1] for _ in range(3)] == [
            "timer",
            "delivery",
            "adversary",
        ]

    def test_fifo_within_priority(self):
        queue = EventQueue()
        queue.push(1.0, PRIORITY_TIMER, "first")
        queue.push(1.0, PRIORITY_TIMER, "second")
        assert queue.pop()[1] == "first"
        assert queue.pop()[1] == "second"

    def test_cancellation(self):
        queue = EventQueue()
        handle = queue.push(1.0, PRIORITY_TIMER, "gone")
        queue.push(2.0, PRIORITY_TIMER, "kept")
        assert queue.cancel(handle)
        assert not queue.cancel(handle)  # already dead
        assert len(queue) == 1
        assert queue.pop() == (2.0, "kept")
        assert queue.pop() is None

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.push(3.0, PRIORITY_TIMER, "x")
        assert queue.peek_time() == 3.0
        assert len(queue) == 1


class TestNetworkConfig:
    def test_validates_basic_fields(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(0, 1.0, 0.1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(3, -1.0, 0.1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(3, 1.0, 2.0)

    def test_u_tilde_bounds(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(3, 1.0, 0.2, u_tilde=0.1)  # below u
        config = NetworkConfig(3, 1.0, 0.1, u_tilde=0.5)
        assert config.faulty_uncertainty == 0.5

    def test_u_tilde_defaults_to_u(self):
        config = NetworkConfig(3, 1.0, 0.1)
        assert config.faulty_uncertainty == 0.1

    def test_delay_bounds_per_link_kind(self):
        config = NetworkConfig(3, 1.0, 0.1, u_tilde=0.4)
        assert config.delay_bounds(True) == (0.9, 1.0)
        assert config.delay_bounds(False) == (0.6, 1.0)

    def test_validate_delay_rejects_out_of_range(self):
        config = NetworkConfig(3, 1.0, 0.1)
        with pytest.raises(ModelViolation):
            config.validate_delay(0.5, True, True)
        with pytest.raises(ModelViolation):
            config.validate_delay(1.5, True, True)

    def test_validate_delay_clamps_float_noise(self):
        config = NetworkConfig(3, 1.0, 0.1)
        assert config.validate_delay(1.0 + 1e-12, True, True) == 1.0


class TestDelayPolicies:
    config = NetworkConfig(4, 1.0, 0.2)

    def _delay(self, policy, src=0, dst=1, honest=True):
        return policy.delay(self.config, src, dst, 0.0, None, honest)

    def test_maximum(self):
        assert self._delay(MaximumDelayPolicy()) == 1.0

    def test_minimum(self):
        assert self._delay(MinimumDelayPolicy()) == pytest.approx(0.8)

    def test_constant_fraction(self):
        policy = ConstantFractionDelayPolicy(0.5)
        assert self._delay(policy) == pytest.approx(0.9)
        with pytest.raises(ConfigurationError):
            ConstantFractionDelayPolicy(1.5)

    def test_random_within_bounds_and_deterministic(self):
        a = RandomDelayPolicy(seed=3)
        b = RandomDelayPolicy(seed=3)
        for _ in range(50):
            da = self._delay(a)
            assert 0.8 - 1e-9 <= da <= 1.0 + 1e-9
            assert da == self._delay(b)

    @given(
        st.integers(min_value=0, max_value=2**64),
        st.lists(st.booleans(), min_size=1, max_size=50),
    )
    def test_random_delay_is_uniform_bit_for_bit(self, seed, links):
        # The per-message draw inlines Random.uniform's formula: over any
        # stream of honest and faulty links it returns exactly the floats
        # uniform(low, high) returns from the same seed.
        config = NetworkConfig(4, 1.0, 0.2, u_tilde=0.7)
        policy = RandomDelayPolicy(seed)
        reference = random.Random(seed)
        for honest in links:
            low, high = config.delay_bounds(honest)
            drawn = policy.delay(config, 0, 1, 0.0, None, honest)
            assert drawn.hex() == reference.uniform(low, high).hex()

    def test_biased_partition(self):
        policy = BiasedPartitionDelayPolicy([0, 1])
        assert self._delay(policy, 0, 1) == pytest.approx(0.8)  # same group
        assert self._delay(policy, 0, 2) == pytest.approx(1.0)  # across

    def test_skewing(self):
        policy = SkewingDelayPolicy(slow_senders=[0])
        assert self._delay(policy, 0, 1) == pytest.approx(1.0)
        assert self._delay(policy, 1, 0) == pytest.approx(0.8)

    def test_describe_strings(self):
        assert "0.5" in ConstantFractionDelayPolicy(0.5).describe()
        assert "seed" in RandomDelayPolicy(7).describe()


class TestSignatureKnowledge:
    def setup_method(self):
        self.pki = PublicKeyInfrastructure(4)
        self.knowledge = SignatureKnowledge(faulty=[3])

    def test_faulty_signer_always_known(self):
        signature = self.pki.key_pair(3).sign("m")
        assert self.knowledge.knows(signature, 0.0)
        assert self.knowledge.earliest_known(signature) == 0.0

    def test_honest_signature_unknown_until_learned(self):
        signature = self.pki.key_pair(0).sign("m")
        assert not self.knowledge.knows(signature, 100.0)
        self.knowledge.learn(signature, 5.0)
        assert not self.knowledge.knows(signature, 4.0)
        assert self.knowledge.knows(signature, 5.0)

    def test_learning_keeps_earliest_time(self):
        signature = self.pki.key_pair(0).sign("m")
        self.knowledge.learn(signature, 5.0)
        self.knowledge.learn(signature, 9.0)
        assert self.knowledge.earliest_known(signature) == 5.0
        self.knowledge.learn(signature, 2.0)
        assert self.knowledge.earliest_known(signature) == 2.0

    def test_learn_payload_walks_containers(self):
        signature = self.pki.key_pair(1).sign("m")
        self.knowledge.learn_payload({"k": [signature]}, 3.0)
        assert self.knowledge.knows(signature, 3.0)

    def test_check_payload_raises_on_unknown(self):
        signature = self.pki.key_pair(0).sign("m")
        with pytest.raises(ForgeryError):
            self.knowledge.check_payload((signature,), 1.0, sender=3)

    def test_check_payload_passes_after_learning(self):
        signature = self.pki.key_pair(0).sign("m")
        self.knowledge.learn(signature, 1.0)
        self.knowledge.check_payload((signature,), 1.0, sender=3)

    def test_equivalent_signature_counts_as_known(self):
        """Deterministic scheme: a re-mint of the same (signer, value) is
        the same knowledge object."""
        first = self.pki.key_pair(0).sign("m")
        second = self.pki.key_pair(0).sign("m")
        self.knowledge.learn(first, 1.0)
        assert self.knowledge.knows(second, 1.0)


class _AlwaysWalks(SignatureKnowledge):
    """The reference: every ``learn_payload`` walks the payload."""

    def learn_payload(self, payload, time):
        for signature in self.signatures_of(payload):
            self.learn(signature, time)


#: Payload shapes: ints stand for signatures, tuples nest.
PAYLOAD_SPECS = st.recursive(
    st.one_of(st.integers(0, 7), st.just("text")),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
KNOWLEDGE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["learn", "learn-ephemeral", "check"]),
        st.integers(0, 7),
        st.integers(0, 6).map(float),
    ),
    max_size=40,
)


def _realize(spec, pki):
    """A fresh payload object of the given shape."""
    if isinstance(spec, tuple):
        # From a list: an exact-size allocation, which is what takes
        # over the id() of a tuple of that size that just died.
        return tuple([_realize(item, pki) for item in spec])
    if isinstance(spec, int):
        return pki.key_pair(spec % 4).sign(("value", spec // 4))
    return spec


class TestLearnPayloadIdentityMemo:
    """Skipping an already-learned payload object changes nothing a
    caller can see: the earliest-known table, ``stats()`` and every
    ``ForgeryError`` equal those of a model that always walks."""

    @given(st.lists(PAYLOAD_SPECS, min_size=1, max_size=4), KNOWLEDGE_OPS)
    # The same object again at an earlier time must be walked again.
    @example(
        [(0, (1,))],
        [("learn", 0, 5.0), ("check", 0, 4.0), ("learn", 0, 3.0),
         ("check", 0, 4.0), ("check", 0, 2.0)],
    )
    # Short-lived payloads of one shape: the second copy of a content
    # dies after its call and hands its id() to the next, new content,
    # which a memo that kept no reference would take for learned.
    @example(
        [(0,), (1,), (2,), (4,)],
        [("learn-ephemeral", slot // 2, float(slot)) for slot in range(8)]
        + [("check", slot, 20.0) for slot in range(4)],
    )
    def test_matches_a_model_that_always_walks(self, specs, ops):
        pki = PublicKeyInfrastructure(4)
        # Repeated objects (a slot drawn twice) and equal-content
        # distinct objects (each spec realized twice).
        pool = [_realize(spec, pki) for spec in specs + specs]
        memo = SignatureKnowledge(faulty=[3])
        model = _AlwaysWalks(faulty=[3])
        forgeries = {id(memo): [], id(model): []}
        for step, (op, slot, time) in enumerate(ops):
            payload = pool[slot % len(pool)]
            if op == "learn-ephemeral":
                payload = _realize(specs[slot % len(specs)], pki)
            for knowledge in (memo, model):
                if op != "check":
                    knowledge.learn_payload(payload, time)
                    continue
                try:
                    knowledge.check_payload(payload, time, sender=3)
                except ForgeryError as error:
                    forgeries[id(knowledge)].append((step, str(error)))
            del payload
            assert memo._earliest == model._earliest
            assert memo.stats() == model.stats()
        assert forgeries[id(memo)] == forgeries[id(model)]

    def test_only_the_same_object_at_a_later_time_is_skipped(self):
        pki = PublicKeyInfrastructure(4)
        knowledge = SignatureKnowledge(faulty=[3])
        payload, twin = (_realize((0, (1,)), pki) for _ in range(2))
        walked = []
        walk = knowledge.signatures_of
        knowledge.signatures_of = lambda p: (walked.append(p), walk(p))[1]
        for time in (2.0, 2.0, 3.0):
            knowledge.learn_payload(payload, time)
        assert walked == [payload]
        knowledge.learn_payload(payload, 1.0)  # earlier: walked again
        knowledge.learn_payload(twin, 9.0)  # equal, but another object
        assert [id(p) for p in walked] == [
            id(payload), id(payload), id(twin)
        ]


class TestTrace:
    def test_records_in_order_and_filters(self):
        trace = Trace()
        trace.records.append(SendRecord(0.0, 0, 1, "m", 1.0, True))
        trace.records.append(TimerRecord(1.0, 1, "t", 1.1))
        trace.records.append(PulseRecord(1.5, 1, 1, 1.6))
        trace.records.append(ProtocolRecord(2.0, 1, "cps-round", {}))
        assert len(trace.records) == 4
        assert len(list(trace.of_type(SendRecord))) == 1
        assert len(list(trace.of_type(TimerRecord))) == 1
        assert [r.index for r in trace.of_type(PulseRecord)] == [1]
        assert trace.protocol_events("cps-round")[0].node == 1
        assert trace.protocol_events("other") == []

    def test_disabled_trace_records_nothing(self):
        simulation = build_simulation({"n": 4}, trace="none").simulation
        result = simulation.run(max_pulses=3)
        assert not simulation.trace.full
        assert result.pulses[0] and result.trace.records == []
