"""Tests for the synchronizer view of pulses (round simulation)."""

import pytest

from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.core.synchronizer import (
    supports_round_simulation,
    synchronous_round_overhead,
    verify_round_separation,
)
from repro.sim.errors import ConfigurationError


class TestSynchronizer:
    def test_default_parameters_support_round_simulation(self):
        for theta, u in [(1.001, 0.01), (1.02, 0.1), (1.05, 0.3)]:
            params = derive_parameters(theta, 1.0, u, 6)
            assert supports_round_simulation(params)

    def test_round_separation_on_real_cps_run(self):
        params = derive_parameters(1.001, 1.0, 0.02, 6)
        simulation = assemble_cps_simulation(params, seed=11)
        result = simulation.run(max_pulses=8)
        schedule = verify_round_separation(
            result.honest_pulses(), params.d
        )
        assert schedule.violations == []
        assert schedule.rounds == 7
        assert all(
            end - start >= params.d
            for start, end in zip(schedule.starts, schedule.ends)
        )

    def test_round_overhead_close_to_nominal(self):
        params = derive_parameters(1.001, 1.0, 0.01, 6)
        simulation = assemble_cps_simulation(params, seed=11)
        result = simulation.run(max_pulses=8)
        overhead = synchronous_round_overhead(
            result.honest_pulses(), params.d
        )
        # Each simulated round costs about T ~ 2.1 d here; the point is
        # it is a constant near (T/d), independent of n and f.
        assert overhead == pytest.approx(params.T / params.d, rel=0.05)

    def test_detects_violations(self):
        pulses = {0: [0.0, 0.5], 1: [0.0, 0.5]}
        schedule = verify_round_separation(pulses, d=1.0)
        assert schedule.violations == [0]

    def test_requires_two_pulses(self):
        with pytest.raises(ConfigurationError):
            verify_round_separation({0: [1.0]}, d=1.0)
        with pytest.raises(ConfigurationError):
            verify_round_separation({}, d=1.0)
