"""Unit tests for events, network/delay policies, knowledge, and traces."""

import pytest

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


class TestTrace:
    def test_records_in_order_and_filters(self):
        trace = Trace()
        trace.send(time=0.0, src=0, dst=1, payload="m", delay=1.0,
                   src_honest=True)
        trace.timer(time=1.0, node=1, tag="t", local_time=1.1)
        trace.pulse(time=1.5, node=1, index=1, local_time=1.6)
        trace.protocol(time=2.0, node=1, kind="cps-round", details={})
        assert len(trace.records) == 4
        assert len(list(trace.of_type(SendRecord))) == 1
        assert len(list(trace.of_type(TimerRecord))) == 1
        assert [r.index for r in trace.of_type(PulseRecord)] == [1]
        assert trace.protocol_events("cps-round")[0].node == 1
        assert trace.protocol_events("other") == []

    def test_disabled_trace_records_nothing(self):
        trace = Trace("none")
        trace.pulse(time=1.0, node=0, index=1, local_time=1.0)
        assert trace.records == []
