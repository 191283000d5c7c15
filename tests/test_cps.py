"""Integration tests for Algorithm CPS against Theorem 17's guarantees."""

import collections
import functools

import pytest

from repro import scenarios
from repro.analysis.metrics import (
    check_liveness,
    max_period,
    max_skew,
    min_period,
    skew_trajectory,
)
from repro.build import build_simulation
from repro.core.attacks import (
    CpsEquivocatingSubsetAttack,
    CpsMimicDealerAttack,
    CpsRushingEchoAttack,
    FastToFaultyDelayPolicy,
)
from repro.core.cps import CpsNode, assemble_cps_simulation, default_clocks
from repro.core.messages import TcbMessage
from repro.core.params import derive_parameters
from repro.core.tcb import TcbState
from repro.sim.adversary import ReplayAdversary, SilentAdversary
from repro.sim.clocks import HardwareClock
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.network import (
    BiasedPartitionDelayPolicy,
    RandomDelayPolicy,
    SkewingDelayPolicy,
)
from repro.sync.crusader import BOT

PULSES = 12


def run_cps(params, pulses=PULSES, **kwargs):
    simulation = assemble_cps_simulation(params, **kwargs)
    result = simulation.run(max_pulses=pulses)
    return simulation, result


def assert_theorem17(params, result, pulses=PULSES):
    honest = result.honest_pulses()
    assert check_liveness(honest, pulses)
    assert max_skew(honest) <= params.S + 1e-9
    assert min_period(honest) >= params.p_min_bound - 1e-9
    assert max_period(honest) <= params.p_max_bound + 1e-9


@pytest.fixture(scope="module")
def params6():
    return derive_parameters(1.001, 1.0, 0.02, 6)


@pytest.fixture(scope="module")
def params9():
    return derive_parameters(1.002, 1.0, 0.05, 9)


def group_a(n):
    return [v for v in range(n) if v % 2 == 0]


class TestFaultFree:
    def test_bounds_with_random_everything(self, params6):
        _, result = run_cps(
            params6,
            delay_policy=RandomDelayPolicy(seed=1),
            seed=1,
        )
        assert_theorem17(params6, result)
        assert not result.warnings

    def test_bounds_with_extreme_clocks(self, params6):
        _, result = run_cps(
            params6,
            delay_policy=SkewingDelayPolicy(group_a(6)),
            clocks=scenarios.create("drift", "extreme", params6),
        )
        assert_theorem17(params6, result)

    def test_skew_contracts_from_initial_offset(self, params6):
        _, result = run_cps(
            params6, clocks=scenarios.create("drift", "extreme", params6)
        )
        trajectory = skew_trajectory(result.honest_pulses())
        assert trajectory[0] == pytest.approx(params6.S, rel=1e-6)
        assert min(trajectory) < params6.S / 4

    def test_no_honest_dealer_rejected(self, params6):
        """Lemma 10 as an executable assertion."""
        simulation, result = run_cps(
            params6,
            delay_policy=SkewingDelayPolicy(group_a(6)),
            clocks=scenarios.create("drift", "extreme", params6),
        )
        for record in result.trace.protocol_events("cps-round"):
            assert record.details.num_bot == 0


ADVERSARIES = {
    "silent": lambda p: SilentAdversary(),
    "mimic-split": lambda p: CpsMimicDealerAttack(p, group_a(p.n)),
    "equivocating-subset": lambda p: CpsEquivocatingSubsetAttack(p),
    "replay": lambda p: ReplayAdversary(seed=0),
}


class TestByzantine:
    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_bounds_at_max_resilience_n6(self, params6, name):
        faulty = list(range(6 - params6.f, 6))
        _, result = run_cps(
            params6,
            faulty=faulty,
            behavior=ADVERSARIES[name](params6),
            delay_policy=SkewingDelayPolicy(group_a(6)),
            clocks=scenarios.create("drift", "extreme", params6),
        )
        assert_theorem17(params6, result)

    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_bounds_at_max_resilience_n9(self, params9, name):
        faulty = list(range(9 - params9.f, 9))
        _, result = run_cps(
            params9,
            faulty=faulty,
            behavior=ADVERSARIES[name](params9),
            delay_policy=BiasedPartitionDelayPolicy(group_a(9)),
            seed=7,
        )
        assert_theorem17(params9, result)

    def test_fewer_faults_than_f_also_fine(self, params6):
        _, result = run_cps(
            params6,
            faulty=[5],
            behavior=CpsMimicDealerAttack(params6, group_a(6)),
        )
        assert_theorem17(params6, result)

    def test_silent_faulty_all_become_bot(self, params6):
        faulty = list(range(6 - params6.f, 6))
        simulation, result = run_cps(
            params6, faulty=faulty, behavior=SilentAdversary()
        )
        for record in result.trace.protocol_events("cps-round"):
            for w in faulty:
                assert record.details.estimates[w] is BOT

    def test_mimic_dealers_are_accepted(self, params6):
        """The in-window split stays under the Lemma 11 tolerance, so the
        faulty dealers' broadcasts are *not* rejected (they attack through
        estimate spread, not through ⊥)."""
        faulty = list(range(6 - params6.f, 6))
        simulation, result = run_cps(
            params6,
            faulty=faulty,
            behavior=CpsMimicDealerAttack(params6, group_a(6)),
        )
        accepted = 0
        for record in result.trace.protocol_events("cps-round"):
            if record.details.pulse_round < 2:
                continue  # attack arms itself after the first pulse
            for w in faulty:
                if record.details.estimates[w] is not BOT:
                    accepted += 1
        assert accepted > 0

    def test_lemma13_consistency_for_accepted_faulty(self, params6):
        faulty = list(range(6 - params6.f, 6))
        simulation, result = run_cps(
            params6,
            faulty=faulty,
            behavior=CpsMimicDealerAttack(params6, group_a(6)),
        )
        honest_pulses = result.honest_pulses()
        honest = sorted(honest_pulses)
        for r in range(PULSES):
            for x in faulty:
                estimates = {}
                for v in honest:
                    summaries = simulation.protocol(v).summaries
                    if r < len(summaries):
                        estimate = summaries[r].estimates.get(x)
                        if estimate is not None and estimate is not BOT:
                            estimates[v] = estimate
                for v in estimates:
                    for w in estimates:
                        gap = abs(
                            estimates[v]
                            - estimates[w]
                            - (honest_pulses[w][r] - honest_pulses[v][r])
                        )
                        assert gap < params6.delta + 1e-9

    def test_lemma12_validity_for_honest_dealers(self, params6):
        simulation, result = run_cps(
            params6, delay_policy=RandomDelayPolicy(seed=5), seed=5
        )
        honest_pulses = result.honest_pulses()
        for v in sorted(honest_pulses):
            for summary in simulation.protocol(v).summaries:
                r = summary.pulse_round - 1
                for w, estimate in summary.estimates.items():
                    if w == v or estimate is BOT:
                        continue
                    true_offset = honest_pulses[w][r] - honest_pulses[v][r]
                    assert estimate >= true_offset - 1e-9
                    assert estimate < true_offset + params6.delta


class TestUtildeGap:
    def test_rushing_echo_harmless_at_u_tilde_equal_u(self, params6):
        faulty = list(range(6 - params6.f, 6))
        _, result = run_cps(
            params6,
            faulty=faulty,
            behavior=CpsRushingEchoAttack(),
            delay_policy=FastToFaultyDelayPolicy(),
        )
        assert_theorem17(params6, result)

    def test_rushing_echo_breaks_lemma10_when_u_tilde_larger(self, params6):
        faulty = list(range(6 - params6.f, 6))
        simulation, result = run_cps(
            params6,
            faulty=faulty,
            behavior=CpsRushingEchoAttack(),
            delay_policy=FastToFaultyDelayPolicy(),
            u_tilde=8 * params6.u,
            clocks=scenarios.create("drift", "extreme", params6),
        )
        honest = set(result.honest)
        honest_rejections = sum(
            1
            for record in result.trace.protocol_events("cps-round")
            for w, estimate in record.details.estimates.items()
            if estimate is BOT and w in honest
        )
        assert honest_rejections > 0


class TestAblationsAndConfig:
    def test_invalid_discard_rule(self, params6):
        with pytest.raises(ConfigurationError):
            CpsNode(params6, discard_rule="median")

    def test_discard_f_rule_fails_at_max_resilience(self, params6):
        faulty = list(range(6 - params6.f, 6))
        simulation = assemble_cps_simulation(
            params6,
            faulty=faulty,
            behavior=SilentAdversary(),
            discard_rule="f",
        )
        from repro.sim.errors import SimulationError

        with pytest.raises(SimulationError):
            simulation.run(max_pulses=3)

    def test_initial_offsets_beyond_s_rejected(self, params6):
        from repro.sim.errors import ClockError

        clocks = [
            HardwareClock.constant_rate(1.0, offset=3 * params6.S)
            if v == 0
            else HardwareClock.constant_rate(1.0)
            for v in range(6)
        ]
        with pytest.raises(ClockError):
            assemble_cps_simulation(params6, clocks=clocks)

    def test_default_clocks_are_the_random_profile(self, params6):
        assert [
            clock.segments() for clock in default_clocks(params6, seed=4)
        ] == [
            clock.segments()
            for clock in scenarios.create("drift", "random", params6, 4)
        ]
        assert len(scenarios.create("drift", "extreme", params6)) == 6

    def test_round_summaries_record_corrections(self, params6):
        simulation, result = run_cps(params6, pulses=5)
        node = simulation.protocol(0)
        assert len(node.summaries) >= 4
        for summary in node.summaries:
            low, high = summary.interval
            assert low <= summary.correction <= high


# ----------------------------------------------------------------------
# The open-instance counter against the O(n) scan it replaced

CPS_ADVERSARIES = [
    entry.key
    for entry in scenarios.REGISTRY.entries("adversary")
    if "cps" in entry.tags
]
#: The default node, then the two ablation hooks that change how a
#: round resolves: no ⊥-aware discard, and no window (a silent
#: dealer's instance never resolves).
NODE_VARIANTS = {
    "default": {},
    "discard-f": {"discard_rule": "f"},
    "no-window": {"window_filter": False},
}


def _scan(node):
    return sum(
        i.state is not TcbState.DONE for i in node.instances.values()
    )


class _CheckedNode(CpsNode):
    """Asserts the counter equals the scan after every event it sees
    (a node's instances change only in its own handlers)."""

    def on_timer(self, api, tag):
        super().on_timer(api, tag)
        assert self.open_instances == _scan(self), (api.node_id, tag)

    def on_message(self, api, sender, payload):
        super().on_message(api, sender, payload)
        assert self.open_instances == _scan(self), (api.node_id, payload)


class _ScanningNode(CpsNode):
    """The reference: a round completes when the scan finds every
    instance resolved, whatever the counter says."""

    def _maybe_complete(self, api):
        self.open_instances = _scan(self)
        super()._maybe_complete(api)


def _cps_outputs(monkeypatch, node_class, case, variant):
    import repro.core.cps as cps

    monkeypatch.setattr(
        cps, "assemble_cps_simulation",
        functools.partial(
            assemble_cps_simulation,
            node=lambda params, **kwargs: node_class(
                params, **kwargs, **variant
            ),
        ),
    )
    simulation = build_simulation(case, seed=2).simulation
    try:
        simulation.run(max_pulses=4)
        error = None
    except SimulationError as exc:  # discard-f may break the model
        error = f"{type(exc).__name__}: {exc}"
    return (
        error,
        simulation.events_processed,
        simulation.pulses,
        {v: simulation.protocol(v).summaries for v in simulation.honest},
    )


@pytest.mark.parametrize("variant", sorted(NODE_VARIANTS))
@pytest.mark.parametrize("adversary", CPS_ADVERSARIES)
def test_open_count_matches_the_scan(monkeypatch, adversary, variant):
    completed = 0
    for delay in scenarios.REGISTRY.keys("delay"):
        # u_tilde = u, and E8's 8u: there echoes reject honest dealers
        # (echo-within-guard under replay, mimic-split, rushing-echo).
        for u_tilde in (None, 0.08):
            case = {
                "n": 7, "adversary": adversary, "delay": delay,
                "u_tilde": u_tilde,
            }
            counted = _cps_outputs(
                monkeypatch, _CheckedNode, case, NODE_VARIANTS[variant]
            )
            scanned = _cps_outputs(
                monkeypatch, _ScanningNode, case, NODE_VARIANTS[variant]
            )
            assert counted == scanned, (delay, u_tilde)
            completed += sum(map(len, counted[3].values()))
    # The default node completes rounds under every adversary.
    assert completed or variant != "default"


# ----------------------------------------------------------------------
# The reception's no-op exits against the verify-first order they replaced

class _VerifyFirstNode(CpsNode):
    """The reference: the former order of the reception's checks, the
    signature verified before the message is found to change nothing.
    A reception that passes them all is handed to the node under test,
    whose own checks then pass too.  ``exits`` counts the receptions
    that reach the signature check, fail it, and pass every check."""

    def __init__(self, params, exits, **kwargs):
        super().__init__(params, **kwargs)
        self.exits = exits

    def on_message(self, api, sender, payload):
        if not isinstance(payload, TcbMessage):
            return
        if payload.pulse_round != self.pulse_round or self.round_complete:
            return
        self.exits["verified"] += 1
        if self.verify_signatures and not payload.is_valid():
            self.exits["invalid"] += 1
            return
        dealer = payload.dealer
        if dealer == api.node_id:
            return
        instance = self.instances.get(dealer)
        if instance is None or instance.state is TcbState.DONE:
            return
        self.exits["live"] += 1
        super().on_message(api, sender, payload)


@pytest.mark.parametrize("adversary", CPS_ADVERSARIES)
def test_no_op_exits_come_before_the_signature_check(monkeypatch, adversary):
    exits = collections.Counter()
    verified = collections.Counter()
    is_valid = TcbMessage.is_valid

    def counted(payload):
        valid = is_valid(payload)
        verified[valid] += 1
        return valid

    for delay in scenarios.REGISTRY.keys("delay"):
        case = {"n": 7, "adversary": adversary, "delay": delay}
        reference = _cps_outputs(
            monkeypatch, _VerifyFirstNode, case, {"exits": exits}
        )
        with monkeypatch.context() as patch:
            patch.setattr(TcbMessage, "is_valid", counted)
            reordered = _cps_outputs(monkeypatch, CpsNode, case, {})
        # Same pulses, summaries, errors and event counts.
        assert reordered == reference, delay
    # Only a reception that can change an instance is verified: every
    # valid one the reference let through, and the invalid ones that
    # reach an open instance.  The stale, own and resolved receptions
    # the reference verified are not.
    assert verified[True] == exits["live"]
    assert verified[False] <= exits["invalid"]
    assert sum(verified.values()) < exits["verified"]
