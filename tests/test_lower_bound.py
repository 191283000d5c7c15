"""Tests for the executable Theorem 5 construction."""

import pytest

from repro.core.cps import CpsNode
from repro.core.lower_bound import (
    FixedPeriodProtocol,
    LowerBoundResult,
    ShiftedDelays,
    ShiftFunction,
    run_lower_bound,
)
from repro.core.params import derive_parameters
from repro.crypto.pki import PublicKeyInfrastructure
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.trace import SendRecord


class TestShiftFunction:
    def test_fast_phase(self):
        shift = ShiftFunction(theta=1.1, shift=0.5)
        assert shift(1.0) == pytest.approx(1.1)

    def test_saturated_phase(self):
        shift = ShiftFunction(theta=1.1, shift=0.5)
        assert shift(10.0) == pytest.approx(10.5)

    def test_saturation_time(self):
        shift = ShiftFunction(theta=1.1, shift=0.5)
        assert shift.saturation_time == pytest.approx(5.0)
        assert shift(5.0) == pytest.approx(5.5)

    def test_zero_shift_identity(self):
        shift = ShiftFunction(theta=1.1, shift=0.0)
        assert shift(3.0) == 3.0
        assert shift.inverse(3.0) == 3.0

    @pytest.mark.parametrize("x", [0.0, 0.5, 4.9, 5.0, 5.1, 100.0])
    def test_inverse_roundtrip(self, x):
        shift = ShiftFunction(theta=1.1, shift=0.5)
        assert shift.inverse(shift(x)) == pytest.approx(x)


class TestEngineValidation:
    def test_requires_drift(self):
        with pytest.raises(ConfigurationError):
            run_lower_bound(lambda v: FixedPeriodProtocol(1.0), 1.0, 1.0, 0.5)

    def test_requires_positive_u_tilde(self):
        with pytest.raises(ConfigurationError):
            run_lower_bound(
                lambda v: FixedPeriodProtocol(1.0), 1.05, 1.0, 0.0
            )

    def test_requires_u_tilde_at_most_d(self):
        with pytest.raises(ConfigurationError):
            run_lower_bound(
                lambda v: FixedPeriodProtocol(1.0), 1.05, 1.0, 1.5
            )

    def test_fixed_period_requires_positive_period(self):
        with pytest.raises(ConfigurationError):
            FixedPeriodProtocol(0.0)


def reception(theta, d, u_tilde, src, dst, local):
    """``T_{src->dst}(local)``: send time plus the construction's delay."""
    policy = ShiftedDelays(ShiftFunction(theta, 2.0 * u_tilde / 3.0), d)
    return local + policy.delay(None, src, dst, local, None, True)


class TestTranslationMaps:
    def test_next_neighbour_uses_fast_receiver(self):
        # T(l) = F(l + d); before saturation F multiplies by theta.
        assert reception(1.1, 1.0, 0.3, 0, 1, 0.0) == pytest.approx(1.1)

    def test_prev_neighbour_uses_fast_sender_inverse(self):
        # T(l) = F^{-1}(l) + d.
        assert reception(1.1, 1.0, 0.3, 0, 2, 1.1) == pytest.approx(2.0)

    def test_reception_always_after_send(self):
        theta, d, u_tilde = 1.05, 1.0, 0.9
        shift = 2.0 * u_tilde / 3.0
        for src in range(3):
            for dst in range(3):
                if src == dst:
                    continue
                for local in (0.0, 1.0, 17.3, 200.0):
                    delay = reception(theta, d, u_tilde, src, dst, local)
                    delay -= local
                    assert delay > 0
                    # Inside the network the construction runs on.
                    assert d - shift - 1e-12 <= delay <= d + shift + 1e-12


class TestTheorem5:
    def _check(self, result, u_tilde):
        saturated = result.saturated_pulse_indices()
        assert saturated, "run long enough to saturate the fast clocks"
        index = saturated[-1]
        assert result.theorem_identity(index) == pytest.approx(
            2.0 * u_tilde, abs=1e-6
        )
        assert result.max_skew_at(index) >= 2.0 * u_tilde / 3.0 - 1e-9

    @pytest.mark.parametrize("u_tilde", [0.15, 0.45, 0.9])
    def test_fixed_period_protocol(self, u_tilde):
        saturation = 2 * u_tilde / 3 / 0.02
        pulses = int(saturation / 1.5) + 5
        result = run_lower_bound(
            lambda v: FixedPeriodProtocol(2.0),
            theta=1.02,
            d=1.0,
            u_tilde=u_tilde,
            max_pulses=pulses,
        )
        self._check(result, u_tilde)

    @pytest.mark.parametrize("u_tilde", [0.3, 0.6])
    def test_cps_cannot_beat_the_bound(self, u_tilde):
        params = derive_parameters(1.02, 1.0, 0.0, 3, f=1)
        saturation = 2 * u_tilde / 3 / 0.02
        pulses = int(saturation / 1.5) + 5
        result = run_lower_bound(
            lambda v: CpsNode(params),
            theta=1.02,
            d=1.0,
            u_tilde=u_tilde,
            max_pulses=pulses,
        )
        self._check(result, u_tilde)
        # The lower bound exceeds CPS's honest-link guarantee: the skew is
        # governed by u_tilde even though u = 0.
        index = result.saturated_pulse_indices()[-1]
        if 2 * u_tilde / 3 > params.S:
            assert result.max_skew_at(index) > params.S

    def test_well_definedness_check_runs_for_cps(self):
        """Lemma 18's bookkeeping: every faulty send only uses signatures
        the adversary received early enough (raises otherwise)."""
        params = derive_parameters(1.02, 1.0, 0.0, 3, f=1)
        result = run_lower_bound(
            lambda v: CpsNode(params), 1.02, 1.0, 0.45, max_pulses=8,
            check=False,
        )
        result.check_well_defined()  # must not raise
        assert result.messages  # CPS actually communicates

    @staticmethod
    def _forwarding_log(learn_at, forward_at):
        """Node 1 signs and sends to node 0 at ``learn_at``; node 0
        forwards the signature to node 2 at ``forward_at``."""
        signature = PublicKeyInfrastructure(3).key_pair(1).sign("pulse")
        return LowerBoundResult(
            theta=1.02,
            d=1.0,
            u_tilde=0.3,
            pulses_local={0: [], 1: [], 2: []},
            messages=[
                SendRecord(learn_at, 1, 0, signature, 1.0, True),
                SendRecord(forward_at, 0, 2, signature, 1.0, True),
            ],
        )

    def test_well_definedness_check_can_fail(self):
        """In Ex^0, node 0 relays node 1's signature before any message
        carrying it reached node 0: the construction is ill-defined."""
        early = self._forwarding_log(learn_at=5.0, forward_at=1.0)
        with pytest.raises(SimulationError, match=r"Ex\^0 ill-defined"):
            early.check_well_defined()
        # Relayed after it arrived: well defined.
        self._forwarding_log(learn_at=1.0, forward_at=5.0).check_well_defined()

    def test_liveness_inside_the_construction(self):
        params = derive_parameters(1.02, 1.0, 0.0, 3, f=1)
        result = run_lower_bound(
            lambda v: CpsNode(params), 1.02, 1.0, 0.3, max_pulses=6
        )
        assert result.common_pulse_count() >= 6
        for k in range(3):
            for times in result.execution_pulses[k].values():
                assert all(b > a for a, b in zip(times, times[1:]))

    def test_execution_pulses_cover_honest_pairs(self):
        result = run_lower_bound(
            lambda v: FixedPeriodProtocol(2.0), 1.02, 1.0, 0.3, max_pulses=4
        )
        for k in range(3):
            assert sorted(result.execution_pulses[k]) == sorted(
                {(k + 1) % 3, (k + 2) % 3}
            )
