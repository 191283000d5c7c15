"""Tests for the Lynch-Welch, signed-relay, and chain-relay baselines."""

import pytest

from repro.analysis.metrics import (
    check_liveness,
    max_skew,
    skew_trajectory,
)
from repro.baselines.chain_relay import (
    ChainMessage,
    ChainRelayNode,
    ChainStretchAttack,
    build_chain_simulation,
    chain_tag,
    derive_chain_parameters,
)
from repro.baselines.lynch_welch import (
    LwTimingAttack,
    LynchWelchNode,
    derive_lw_parameters,
    lw_max_faults,
)
from repro.baselines.srikanth_toueg import (
    StRushAttack,
    build_st_simulation,
    derive_st_parameters,
)
from repro.core.cps import assemble_cps_simulation
from repro.crypto.pki import PublicKeyInfrastructure
from repro.sim.clocks import HardwareClock
from repro.sim.errors import ConfigurationError
from repro.sim.network import RandomDelayPolicy, SkewingDelayPolicy

PULSES = 10


def group_a(n):
    return [v for v in range(n) if v % 2 == 0]


def extreme_clocks(n, theta, offset):
    return [
        HardwareClock.constant_rate(
            1.0 if v % 2 == 0 else theta,
            offset=0.0 if v % 2 == 0 else offset,
            theta=theta,
        )
        for v in range(n)
    ]


@pytest.mark.parametrize(
    "derive", [derive_st_parameters, derive_chain_parameters]
)
def test_relay_records_refuse_theta_below_one(derive):
    # A rate below 1 is no hardware clock: the record refuses it, as
    # ProtocolParameters does, before any clock is drawn.
    with pytest.raises(ConfigurationError, match="theta must be >= 1"):
        derive(0.9, 1.0, 0.01, 4)


class _RecordingApi:
    """The calls a :class:`ChainRelayNode` makes, recorded."""

    def __init__(self, pki, node_id, now):
        self.node_id = node_id
        self.now = now
        self.key = pki.key_pair(node_id)
        self.timers = []
        self.sent = []

    def local_time(self):
        return self.now

    def set_timer(self, local_when, tag):
        self.timers.append((local_when, tag))

    def broadcast(self, payload):
        self.sent.append(payload)

    def sign(self, value):
        return self.key.sign(value)


class TestLynchWelch:
    def test_max_faults(self):
        assert lw_max_faults(3) == 0
        assert lw_max_faults(4) == 1
        assert lw_max_faults(7) == 2
        assert lw_max_faults(10) == 3

    def test_fault_free_bounds(self):
        params = derive_lw_parameters(1.001, 1.0, 0.02, 7)
        simulation = assemble_cps_simulation(
            params,
            delay_policy=RandomDelayPolicy(seed=2),
            seed=2,
            node=LynchWelchNode,
        )
        result = simulation.run(max_pulses=PULSES)
        honest = result.honest_pulses()
        assert check_liveness(honest, PULSES)
        assert max_skew(honest) <= params.S + 1e-9

    def test_tolerates_f_below_n_third(self):
        n = 7
        f = lw_max_faults(n)
        params = derive_lw_parameters(1.001, 1.0, 0.02, n, f=f)
        simulation = assemble_cps_simulation(
            params,
            clocks=extreme_clocks(n, params.theta, params.S),
            faulty=list(range(n - f, n)),
            behavior=LwTimingAttack(params, group_a(n)),
            delay_policy=SkewingDelayPolicy(group_a(n)),
            node=LynchWelchNode,
        )
        result = simulation.run(max_pulses=PULSES)
        honest = result.honest_pulses()
        assert check_liveness(honest, PULSES)
        assert max_skew(honest) <= params.S + 1e-9

    def test_breaks_beyond_n_third(self):
        """At f = ceil(n/2)-1 >= n/3 the timing-split attack prevents
        contraction: the skew exceeds the bound that holds for CPS."""
        n = 9
        f = 4
        params = derive_lw_parameters(1.001, 1.0, 0.02, n, f=f)
        simulation = assemble_cps_simulation(
            params,
            clocks=extreme_clocks(n, params.theta, params.S),
            faulty=list(range(n - f, n)),
            behavior=LwTimingAttack(params, group_a(n)),
            delay_policy=SkewingDelayPolicy(group_a(n)),
            node=LynchWelchNode,
        )
        result = simulation.run(max_pulses=40)
        trajectory = skew_trajectory(result.honest_pulses())
        assert max(trajectory[8:]) > params.S

    def test_contrast_cps_survives_same_setting(self):
        from repro.core.attacks import CpsMimicDealerAttack
        from repro.core.params import derive_parameters

        n, f = 9, 4
        params = derive_parameters(1.001, 1.0, 0.02, n, f=f)
        simulation = assemble_cps_simulation(
            params,
            clocks=extreme_clocks(n, params.theta, params.S),
            faulty=list(range(n - f, n)),
            behavior=CpsMimicDealerAttack(params, group_a(n)),
            delay_policy=SkewingDelayPolicy(group_a(n)),
        )
        result = simulation.run(max_pulses=40)
        assert max_skew(result.honest_pulses()) <= params.S + 1e-9


class TestSrikanthToueg:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            derive_st_parameters(1.001, 1.0, 0.02, 5, f=4)

    def test_fault_free_liveness_and_theta_d_skew(self):
        params = derive_st_parameters(1.001, 1.0, 0.02, 6)
        simulation = build_st_simulation(params, seed=3)
        result = simulation.run(max_pulses=PULSES)
        honest = result.honest_pulses()
        assert check_liveness(honest, PULSES)
        # Relay propagation bounds the skew by ~d (plus slack).
        assert max_skew(honest) <= params.d + params.S + 1e-9

    def test_rush_attack_keeps_liveness_but_skew_order_d(self):
        n = 6
        params = derive_st_parameters(1.001, 1.0, 0.02, n)
        faulty = list(range(n - params.f, n))
        simulation = build_st_simulation(
            params,
            faulty=faulty,
            behavior=StRushAttack(params),
            delay_policy=SkewingDelayPolicy(group_a(n)),
            seed=3,
        )
        result = simulation.run(max_pulses=PULSES)
        honest = result.honest_pulses()
        assert check_liveness(honest, PULSES)
        measured = max_skew(honest)
        assert measured <= params.d + params.S + 1e-9
        # The point of E6: the skew is Theta(d), nowhere near u.
        assert measured > 10 * params.u

    def test_skew_does_not_vanish_with_u(self):
        """Shrinking u does not help a threshold-relay pulser."""
        results = []
        for u in (0.02, 0.002):
            params = derive_st_parameters(1.001, 1.0, u, 6)
            faulty = [4, 5]
            simulation = build_st_simulation(
                params,
                faulty=faulty,
                behavior=StRushAttack(params),
                delay_policy=SkewingDelayPolicy(group_a(6)),
                seed=3,
            )
            result = simulation.run(max_pulses=PULSES)
            results.append(max_skew(result.honest_pulses(), skip=2))
        assert results[1] > results[0] / 4  # basically unchanged


class TestChainRelay:
    def test_chain_validation(self):
        pki = PublicKeyInfrastructure(4)
        good = ChainMessage(
            1,
            (
                pki.key_pair(0).sign(chain_tag(1)),
                pki.key_pair(1).sign(chain_tag(1)),
            ),
        )
        assert good.is_valid(3)
        assert not good.is_valid(1)  # too long
        duplicated = ChainMessage(
            1,
            (
                pki.key_pair(0).sign(chain_tag(1)),
                pki.key_pair(0).sign(chain_tag(1)),
            ),
        )
        assert not duplicated.is_valid(3)
        wrong_round = ChainMessage(
            2, (pki.key_pair(0).sign(chain_tag(1)),)
        )
        assert not wrong_round.is_valid(3)

    def test_a_received_chain_is_extended_and_accepted(self):
        # No committed run gets here: every node reaches its own due
        # time, and originates, before the first chain arrives.  Here
        # both nodes receive d / 2 before they are due; S = 3 d widens
        # the plausibility window enough to take such a chain.
        params = derive_chain_parameters(1.001, 1.0, 0.02, 4, S=3.0)
        assert params.f == 1
        pki = PublicKeyInfrastructure(4)
        now = params.S + params.period - params.d / 2
        one_hop = ChainMessage(1, (pki.key_pair(0).sign(chain_tag(1)),))
        relay = ChainRelayNode(params)
        relay_api = _RecordingApi(pki, 1, now)
        relay.on_start(relay_api)
        relay.on_message(relay_api, 0, one_hop)
        two_hop = ChainMessage(
            1, one_hop.chain + (pki.key_pair(1).sign(chain_tag(1)),)
        )
        assert relay_api.sent == [two_hop]
        origin = now - params.d
        assert relay_api.timers[-1] == (
            origin + params.pulse_delay, ("pulse", 1)
        )
        # A second node accepts the two-hop chain (it adopts the origin
        # two delays back) and does not extend it past f + 1 signers.
        acceptor = ChainRelayNode(params)
        acceptor_api = _RecordingApi(pki, 2, now)
        acceptor.on_start(acceptor_api)
        acceptor.on_message(acceptor_api, 1, two_hop)
        assert acceptor_api.timers[-1] == (
            now - 2 * params.d + params.pulse_delay, ("pulse", 1)
        )
        assert acceptor_api.sent == []

    def test_fault_free_liveness(self):
        params = derive_chain_parameters(1.001, 1.0, 0.02, 6)
        simulation = build_chain_simulation(params, seed=4)
        result = simulation.run(max_pulses=6)
        assert check_liveness(result.honest_pulses(), 6)

    def test_stretch_attack_within_theory_bound(self):
        n = 7
        params = derive_chain_parameters(1.001, 1.0, 0.02, n)
        faulty = list(range(n - params.f, n))
        simulation = build_chain_simulation(
            params,
            faulty=faulty,
            behavior=ChainStretchAttack(params),
            seed=4,
        )
        result = simulation.run(max_pulses=8)
        honest = result.honest_pulses()
        assert check_liveness(honest, 8)
        assert max_skew(honest, skip=2) <= params.skew_bound + 1e-9

    def test_skew_grows_with_f(self):
        """The Theta(f (u + (theta-1) d)) scaling of experiment E6."""
        measured = {}
        for n in (5, 13):
            params = derive_chain_parameters(1.0005, 1.0, 0.02, n)
            faulty = list(range(n - params.f, n))
            simulation = build_chain_simulation(
                params,
                faulty=faulty,
                behavior=ChainStretchAttack(params),
                seed=4,
            )
            result = simulation.run(max_pulses=8)
            measured[n] = max_skew(result.honest_pulses(), skip=2)
        assert measured[13] > 1.8 * measured[5]


class TestComparisonDelayAxis:
    """E6's ``delay`` key reaches every arm or fails at plan time."""

    @pytest.mark.parametrize(
        "algorithm, entry",
        [
            ("Signed relay [28]/[21]", "build_st_simulation"),
            ("Chain relay [2]-style", "build_chain_simulation"),
        ],
    )
    def test_relay_arms_honour_the_case_delay(
        self, monkeypatch, algorithm, entry
    ):
        from repro.campaigns import MeasurementSpec, builders
        from repro.sim.network import MaximumDelayPolicy, MinimumDelayPolicy

        seen = []
        build = getattr(builders, entry)

        def spy(params, **wiring):
            seen.append(type(wiring["delay_policy"]))
            return build(params, **wiring)

        monkeypatch.setattr(builders, entry, spy)
        case = {
            "n": 5, "theta": 1.001, "d": 1.0, "u": 0.01,
            "algorithm": algorithm,
        }
        measurement = MeasurementSpec(pulses=4, warmup=1)
        default = builders.algorithm_comparison_trial(case, measurement, 1)
        explicit = builders.algorithm_comparison_trial(
            {**case, "delay": "maximum"}, measurement, 1
        )
        builders.algorithm_comparison_trial(
            {**case, "delay": "minimum"}, measurement, 1
        )
        assert default == explicit
        assert seen == [
            MaximumDelayPolicy, MaximumDelayPolicy, MinimumDelayPolicy
        ]

    def test_an_unknown_delay_fails_at_plan_time(self):
        from repro.campaigns import CampaignSpec, ScenarioSpec
        from repro.scenarios import UnknownScenarioError

        spec = CampaignSpec(
            name="e6-typo",
            scenarios=(
                ScenarioSpec(
                    builder="algorithm-comparison",
                    base={"delay": "maximun"},
                    axes={"*": {"n": (5,)}},
                ),
            ),
        )
        with pytest.raises(UnknownScenarioError):
            spec.trials_for("quick")
