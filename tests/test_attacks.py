"""Focused tests for the CPS attack library and failure injection."""

import pytest

from repro import scenarios
from repro.core.attacks import (
    CpsEquivocatingSubsetAttack,
    CpsMimicDealerAttack,
    CpsRushingEchoAttack,
    FastToFaultyDelayPolicy,
)
from repro.core.cps import assemble_cps_simulation
from repro.core.messages import TcbMessage, tcb_tag
from repro.core.params import derive_parameters
from repro.dynamics import ChurnController, FaultEvent, FaultSchedule
from repro.sim.network import NetworkConfig
from repro.sync.crusader import BOT


@pytest.fixture(scope="module")
def params():
    return derive_parameters(1.0005, 1.0, 0.02, 6)


def faulty_of(params):
    return list(range(params.n - params.f, params.n))


class TestMessages:
    def test_tcb_message_validity(self):
        from repro.crypto.pki import PublicKeyInfrastructure

        pki = PublicKeyInfrastructure(3)
        good = TcbMessage(4, 1, pki.key_pair(1).sign(tcb_tag(4)))
        assert good.is_valid()
        wrong_round = TcbMessage(5, 1, pki.key_pair(1).sign(tcb_tag(4)))
        assert not wrong_round.is_valid()
        wrong_dealer = TcbMessage(4, 2, pki.key_pair(1).sign(tcb_tag(4)))
        assert not wrong_dealer.is_valid()

    def test_tcb_tag_distinguishes_rounds(self):
        assert tcb_tag(1) != tcb_tag(2)


class TestMimicAttack:
    def test_faulty_dealers_split_groups(self, params):
        group_a = [0, 2]
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty_of(params),
            behavior=CpsMimicDealerAttack(params, group_a),
            seed=1,
        )
        result = simulation.run(max_pulses=6)
        # Nodes in group A receive faulty estimates systematically lower
        # than nodes outside it (faster delivery => earlier arrival).
        diffs = []
        honest_pulses = result.honest_pulses()
        for r in range(2, 5):
            for x in faulty_of(params):
                in_a = []
                out_a = []
                for v in result.honest:
                    summary = simulation.protocol(v).summaries[r]
                    estimate = summary.estimates.get(x)
                    if estimate is BOT or estimate is None:
                        continue
                    adjusted = estimate + honest_pulses[v][r]
                    (in_a if v in group_a else out_a).append(adjusted)
                if in_a and out_a:
                    diffs.append(
                        max(in_a) - min(out_a)
                    )
        assert diffs
        assert all(diff < 0 for diff in diffs)

    def test_spread_fraction_validated_by_model(self, params):
        # A spread fraction of 1.0 still produces admissible delays.
        attack = CpsMimicDealerAttack(params, [0], spread_fraction=1.0)
        simulation = assemble_cps_simulation(
            params, faulty=faulty_of(params), behavior=attack, seed=1
        )
        simulation.run(max_pulses=4)  # must not raise ModelViolation


class TestEquivocatingSubset:
    def test_half_get_value_half_get_bot(self, params):
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty_of(params),
            behavior=CpsEquivocatingSubsetAttack(params),
            seed=1,
        )
        result = simulation.run(max_pulses=5)
        honest = sorted(result.honest)
        subset = honest[: len(honest) // 2]
        excluded = honest[len(honest) // 2 :]
        for r in range(2, 4):
            for x in faulty_of(params):
                for v in subset:
                    estimate = simulation.protocol(v).summaries[r].estimates[x]
                    assert estimate is not BOT
                for v in excluded:
                    estimate = simulation.protocol(v).summaries[r].estimates[x]
                    assert estimate is BOT


class TestRushingEcho:
    def test_targets_only_selected_dealers(self, params):
        attack = CpsRushingEchoAttack(target_dealers={0})
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty_of(params),
            behavior=attack,
            delay_policy=FastToFaultyDelayPolicy(),
            u_tilde=8 * params.u,
            clocks=scenarios.create("drift", "extreme", params),
        )
        result = simulation.run(max_pulses=6)
        rejected_dealers = set()
        for record in result.trace.protocol_events("cps-round"):
            for w, estimate in record.details.estimates.items():
                if estimate is BOT and w in result.honest:
                    rejected_dealers.add(w)
        assert rejected_dealers <= {0}

    def test_fast_to_faulty_policy_bounds(self, params):
        policy = FastToFaultyDelayPolicy()
        config = NetworkConfig(6, 1.0, 0.02, u_tilde=0.1)
        assert policy.delay(config, 0, 1, 0.0, None, True) == 1.0
        assert policy.delay(config, 0, 5, 0.0, None, False) == pytest.approx(
            0.9
        )


class TestCrashFaults:
    def test_crash_mid_run_keeps_guarantees(self, params):
        """Crash faults are a special case of Byzantine: guarantees hold."""
        from repro.analysis.metrics import check_liveness, max_skew

        schedule = FaultSchedule(
            events=(
                FaultEvent("crash", 4, at=5.0),
                FaultEvent("crash", 5, at=12.0),
            )
        )
        simulation = assemble_cps_simulation(
            params, seed=3, dynamics=ChurnController(schedule, params)
        )
        result = simulation.run(max_pulses=10)
        survivors = {
            v: result.pulses[v] for v in schedule.stable_nodes(params.n)
        }
        assert sorted(survivors) == [0, 1, 2, 3]
        assert check_liveness(survivors, 10)
        assert max_skew(survivors) <= params.S + 1e-9
        assert len(result.pulses[4]) < len(result.pulses[5]) < 10
