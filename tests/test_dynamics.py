"""Tests for the churn subsystem: schedules, injection, resync,
stabilization metrics/monitor, and churn determinism."""

import os

import pytest

from repro import scenarios
from repro.analysis.metrics import (
    alignment_envelope,
    nearest_pulse_gap,
    stabilization_report,
)
from repro.campaigns import (
    ExecutionPolicy,
    campaign_definition,
    execute_campaign,
)
from repro.build import build_simulation
from repro.checks import (
    CHURN_MONITORS,
    MONITOR_CATALOG,
    applicable_monitors,
    check_scenario,
    judged_run,
    scenario_mode,
)
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.dynamics import (
    ChurnController,
    FaultEvent,
    FaultSchedule,
    MalformedScheduleError,
)
from repro.fuzz import load_fixture, replay_fixture
from repro.scenarios import REGISTRY
from repro.sim.errors import SimulationError

CHURN_FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "results", "fuzz", "promoted", "fuzz-ad402acf2e439286.json",
)

PROFILES = (
    "single-crash",
    "rolling-crashes",
    "crash-recover-wave",
    "late-join-cohort",
    "flapping-node",
    "adversary-handoff",
)


def _params(n=6, u=0.02):
    return derive_parameters(1.001, 1.0, u, n)


def _crash_recover_schedule():
    return FaultSchedule(
        events=(
            FaultEvent("crash", 0, at_pulse=3),
            FaultEvent("recover", 0, at_pulse=6),
        ),
        corruptions=1,
    )


def _run(schedule, pulses=14, seed=0, n=6, trace="none"):
    params = _params(n=n)
    controller = ChurnController(schedule, params)
    simulation = assemble_cps_simulation(
        params,
        faulty=schedule.initially_corrupted(n),
        seed=seed,
        clocks=scenarios.create("drift", "extreme", params),
        trace=trace,
        dynamics=controller,
    )
    result = simulation.run(max_pulses=pulses)
    return simulation, controller, result, params


class TestFaultEvent:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(MalformedScheduleError, match="exactly one"):
            FaultEvent("crash", 0)
        with pytest.raises(MalformedScheduleError, match="exactly one"):
            FaultEvent("crash", 0, at=1.0, at_pulse=2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(MalformedScheduleError, match="unknown"):
            FaultEvent("explode", 0, at=1.0)

    def test_rejects_bad_times(self):
        with pytest.raises(MalformedScheduleError, match="negative"):
            FaultEvent("crash", 0, at=-1.0)
        with pytest.raises(MalformedScheduleError, match=">= 1"):
            FaultEvent("crash", 0, at_pulse=0)


class TestScheduleValidation:
    def test_valid_schedule_passes(self):
        _crash_recover_schedule().validate(6, 2)

    def test_node_out_of_range(self):
        schedule = FaultSchedule(
            events=(FaultEvent("crash", 9, at_pulse=2),)
        )
        with pytest.raises(MalformedScheduleError, match="outside"):
            schedule.validate(6, 2)

    def test_budget_enforced(self):
        # Two crashes plus one corruption exceed f=2.
        schedule = FaultSchedule(
            events=(
                FaultEvent("crash", 0, at_pulse=2),
                FaultEvent("crash", 1, at_pulse=3),
            ),
            corruptions=1,
        )
        with pytest.raises(MalformedScheduleError, match="budget"):
            schedule.validate(6, 2)

    def test_recover_requires_prior_crash(self):
        schedule = FaultSchedule(
            events=(FaultEvent("recover", 0, at_pulse=2),)
        )
        with pytest.raises(MalformedScheduleError, match="not crashed"):
            schedule.validate(6, 2)

    def test_needs_a_stable_node(self):
        # One-at-a-time rolling crashes that touch *every* node stay
        # within the budget but leave no stable reference.
        events = []
        for v in range(4):
            events.append(FaultEvent("crash", v, at_pulse=2 + 4 * v))
            events.append(FaultEvent("recover", v, at_pulse=4 + 4 * v))
        schedule = FaultSchedule(events=tuple(events), corruptions=0)
        with pytest.raises(MalformedScheduleError, match="stable"):
            schedule.validate(4, 1)

    def test_join_of_corrupted_node_rejected(self):
        # Node 5 is initially corrupted (top id); it cannot also be a
        # dormant late joiner.
        schedule = FaultSchedule(
            events=(FaultEvent("join", 5, at_pulse=2),),
            corruptions=1,
        )
        with pytest.raises(
            MalformedScheduleError, match="both late-join and start"
        ):
            schedule.validate(6, 2)

    def test_declared_order_must_match_trigger_order(self):
        # Declared crash-then-recover, but the recover triggers first:
        # the runtime would apply recover before crash.
        schedule = FaultSchedule(
            events=(
                FaultEvent("crash", 0, at_pulse=5),
                FaultEvent("recover", 0, at_pulse=3),
            ),
            corruptions=0,
        )
        with pytest.raises(
            MalformedScheduleError, match="contradicts trigger order"
        ):
            schedule.validate(6, 2)
        by_time = FaultSchedule(
            events=(
                FaultEvent("crash", 0, at=5.0),
                FaultEvent("recover", 0, at=3.0),
            ),
            corruptions=0,
        )
        with pytest.raises(
            MalformedScheduleError, match="contradicts trigger order"
        ):
            by_time.validate(6, 2)

    def test_dormant_nodes_counted(self):
        schedule = FaultSchedule(
            events=(FaultEvent("join", 0, at_pulse=2),),
            corruptions=2,
        )
        with pytest.raises(MalformedScheduleError, match="budget|f="):
            schedule.validate(6, 2)

    def test_derived_sets(self):
        schedule = _crash_recover_schedule()
        assert schedule.initially_dormant() == []
        assert schedule.initially_corrupted(6) == [5]
        assert schedule.stable_nodes(6) == [1, 2, 3, 4]
        assert schedule.finally_active(6) == [0, 1, 2, 3, 4]
        assert [e.kind for e in schedule.activations()] == ["recover"]


class TestInjection:
    def test_crash_stops_pulsing(self):
        schedule = FaultSchedule(
            events=(FaultEvent("crash", 0, at_pulse=3),),
            corruptions=1,
        )
        _sim, controller, result, _params = _run(schedule, pulses=8)
        assert [kind for _t, kind, _v in controller.applied] == ["crash"]
        # The trigger is global pulse progress: the crashed (slow) node
        # holds 2-3 pulses when the fastest node reaches index 3.
        assert 2 <= len(result.pulses[0]) <= 3
        crash_time = controller.applied[0][0]
        assert all(t <= crash_time for t in result.pulses[0])
        for v in (1, 2, 3, 4):
            assert len(result.pulses[v]) >= 8

    def test_absolute_time_trigger(self):
        schedule = FaultSchedule(
            events=(FaultEvent("crash", 0, at=5.0),),
            corruptions=1,
        )
        _sim, controller, result, _params = _run(schedule, pulses=8)
        (crash_time, kind, node) = controller.applied[0]
        assert (kind, node) == ("crash", 0)
        assert crash_time == pytest.approx(5.0)
        assert all(t <= 5.0 for t in result.pulses[0])

    def test_recovered_node_reaches_quota(self):
        _sim, controller, result, _params = _run(
            _crash_recover_schedule(), pulses=14
        )
        kinds = [kind for _t, kind, _v in controller.applied]
        assert kinds == ["crash", "recover"]
        # The pulse quota counts the recovered node again: it must have
        # caught up to the full budget by the end of the run.
        assert len(result.pulses[0]) >= 14

    def test_recovered_node_resynchronizes(self):
        _sim, controller, result, params = _run(
            _crash_recover_schedule(), pulses=14
        )
        recover_time = controller.applied[-1][0]
        report = stabilization_report(
            result.pulses, 0, recover_time, [1, 2, 3, 4], params.S
        )
        assert report.resynced
        assert report.pulses_to_resync <= 6
        assert report.envelope <= params.S

    def test_late_join_starts_dormant(self):
        schedule = FaultSchedule(
            events=(FaultEvent("join", 0, at_pulse=3),),
            corruptions=1,
        )
        _sim, controller, result, params = _run(schedule, pulses=12)
        join_time = controller.applied[0][0]
        assert result.pulses[0], "joiner never pulsed"
        assert min(result.pulses[0]) > join_time
        report = stabilization_report(
            result.pulses, 0, join_time, [1, 2, 3, 4], params.S
        )
        assert report.resynced

    def test_fast_flapping_ignores_stale_listen_timers(self):
        # A node flapping faster than one listen window leaves the
        # first incarnation's listen deadline pending across the second
        # crash; the wrapper must ignore it (deadline nonce in the tag)
        # instead of handing off early with a truncated estimate set.
        schedule = FaultSchedule(
            events=(
                FaultEvent("crash", 0, at=5.0),
                FaultEvent("recover", 0, at=6.0),
                FaultEvent("crash", 0, at=7.0),
                FaultEvent("recover", 0, at=8.0),
            ),
            corruptions=1,
        )
        _sim, controller, result, params = _run(
            schedule, pulses=16, seed=11
        )
        final_recover = controller.applied[-1][0]
        report = stabilization_report(
            result.pulses, 0, final_recover, [1, 2, 3, 4], params.S
        )
        assert report.resynced, report
        assert report.envelope <= params.S

    def test_adversary_handoff_moves_the_corrupted_set(self):
        n = 6
        schedule = FaultSchedule(
            events=(
                FaultEvent("restore", 5, at_pulse=3),
                FaultEvent("corrupt", 0, at_pulse=3),
            ),
            corruptions=2,
        )
        sim, controller, result, params = _run(schedule, pulses=12)
        assert sim.faulty == {0, 4}
        assert 5 in sim.honest and 0 not in sim.honest
        assert len(result.pulses[5]) >= 12  # released node caught up
        handoff = controller.applied[0][0]
        assert all(t <= handoff for t in result.pulses[0])

    def test_mismatched_corruption_set_rejected(self):
        params = _params()
        schedule = _crash_recover_schedule()  # expects faulty == {5}
        with pytest.raises(MalformedScheduleError, match="corrupted"):
            assemble_cps_simulation(
                params,
                faulty=[4, 5],
                seed=0,
                clocks=scenarios.create("drift", "extreme", params),
                dynamics=ChurnController(schedule, params),
            )

    def test_runtime_budget_guard(self):
        # Corrupting beyond f at runtime is refused by the scheduler
        # even if a hand-rolled hook tries it.
        params = _params()
        simulation = assemble_cps_simulation(
            params,
            faulty=[4, 5],
            seed=0,
            clocks=scenarios.create("drift", "extreme", params),
        )
        with pytest.raises(SimulationError, match="budget"):
            simulation.corrupt_node(0)


class TestChurnBuilder:
    def test_unfired_activation_is_not_vacuous_success(self):
        # A recovery whose trigger lands beyond the measurement window
        # never fires; the row must NOT report resynced.
        from repro.campaigns.builders import cps_churn_trial
        from repro.campaigns.spec import MeasurementSpec

        case = {
            "n": 6,
            "theta": 1.001,
            "d": 1.0,
            "u": 0.02,
            "adversary": "silent",
            "delay": "maximum",
            "drift": "extreme",
            "churn": "crash-recover-wave",
            "churn_params": {"at_pulse": 40},
        }
        row = cps_churn_trial(
            case, MeasurementSpec(pulses=8, warmup=2), seed=0
        )
        assert row["activations"] == 2
        assert row["disruptions"] == 0
        assert row["resynced"] is False


class TestStabilizationMetrics:
    def test_nearest_pulse_gap(self):
        assert nearest_pulse_gap([1.0, 3.0], 2.9) == pytest.approx(0.1)
        assert nearest_pulse_gap([1.0, 3.0], 0.0) == pytest.approx(1.0)
        assert nearest_pulse_gap([], 1.0) == float("inf")

    def test_alignment_envelope_skips_truncated_references(self):
        pulses = {1: [1.0, 2.0], 2: [1.0, 2.0, 3.0]}
        # t=3.0 is beyond node 1's train (+bound), so only node 2 counts.
        assert alignment_envelope(
            pulses, [1, 2], 3.0, bound=0.5
        ) == pytest.approx(0.0)
        # No reference covers t=10 at all.
        assert alignment_envelope(pulses, [1, 2], 10.0, bound=0.5) is None

    def test_report_flags_never_resynced(self):
        pulses = {0: [5.0, 6.0, 7.0], 1: [5.4, 6.4, 7.4]}
        report = stabilization_report(pulses, 0, 4.0, [1], bound=0.1)
        assert not report.resynced

    def test_report_counts_pulses_to_resync(self):
        pulses = {
            0: [5.3, 6.1, 7.0],  # converges on its second pulse
            1: [5.0, 6.0, 7.0, 8.0],
        }
        report = stabilization_report(pulses, 0, 4.0, [1], bound=0.15)
        assert report.resynced
        assert report.pulses_to_resync == 2
        assert report.envelope == pytest.approx(0.1)

    def test_report_without_post_pulses(self):
        pulses = {0: [1.0], 1: [1.0, 2.0, 3.0]}
        report = stabilization_report(pulses, 0, 1.5, [1], bound=0.1)
        assert not report.resynced
        assert report.pulses_to_resync is None


class TestChurnRegistry:
    def test_profiles_registered(self):
        assert set(REGISTRY.keys("churn")) == set(PROFILES)

    def test_profiles_validate_against_reference_deployment(self):
        params = _params()
        for key in PROFILES:
            schedule = REGISTRY.create("churn", key, params)
            schedule.validate(params.n, params.f)

    def test_profiles_scale_with_n(self):
        params = _params(n=9)
        for key in PROFILES:
            schedule = REGISTRY.create("churn", key, params)
            schedule.validate(params.n, params.f)

    def test_factory_overrides_can_malform(self):
        params = _params()
        with pytest.raises(MalformedScheduleError):
            REGISTRY.create(
                "churn", "single-crash", params, node=99
            ).validate(params.n, params.f)

    def test_churn_mode_and_monitors(self):
        for key in PROFILES:
            assert scenario_mode("churn", key) == "churn"
            assert applicable_monitors("churn", key) == CHURN_MONITORS
        assert "stabilization" in MONITOR_CATALOG


class TestChurnConformance:
    def test_every_profile_passes_quick(self):
        for key in PROFILES:
            report = check_scenario("churn", key, scale="quick", seed=0)
            assert report.ok, (
                key,
                report.error,
                [v.as_dict() for v in report.verdicts],
            )
            assert report.mode == "churn"
            assert all(v.checked > 0 for v in report.verdicts)

    def test_fixture_fires(self):
        # flapping-node, cycles=3, 12 pulses: the third recovery is
        # scheduled for pulse 14, after the run ends.
        violations = replay_fixture(load_fixture(CHURN_FIXTURE)).violations()
        assert violations, "a recovery that never happens went undetected"
        messages = " ".join(v.message for v in violations)
        assert "recover of node 0 at pulse 14 never occurred" in messages


class TestChurnDeterminism:
    """Identical outputs across trace levels and executor modes."""

    def test_trace_levels_agree(self):
        for key in ("crash-recover-wave", "adversary-handoff"):
            case = {
                "n": 6,
                "theta": 1.001,
                "d": 1.0,
                "u": 0.02,
                "adversary": "silent",
                "delay": "maximum",
                "drift": "extreme",
                "churn": key,
            }
            by_level = {}
            for level in ("none", "full"):
                run = judged_run(case, pulses=12, seed=7, trace=level)
                by_level[level] = (
                    [v.as_dict() for v in run.verdicts],
                    run.result.pulses,
                )
            assert by_level["none"] == by_level["full"]

    def test_serial_and_pool_records_agree(self):
        definition = campaign_definition("CHURN-STRESS")
        runs = {
            workers: execute_campaign(
                definition.spec(),
                scale="quick",
                policy=ExecutionPolicy(workers=workers),
            )
            for workers in (1, 2)
        }
        serial = [
            (r.case_key, r.metrics, r.error)
            for r in runs[1].records
        ]
        pooled = [
            (r.case_key, r.metrics, r.error)
            for r in runs[2].records
        ]
        assert serial == pooled
        assert runs[1].failed == 0


class TestZeroCostWhenUnused:
    def test_static_run_has_no_dynamics(self):
        case = {
            "n": 6,
            "theta": 1.001,
            "d": 1.0,
            "u": 0.02,
            "adversary": "silent",
            "delay": "maximum",
            "drift": "extreme",
        }
        simulation = build_simulation(case, seed=3).simulation
        assert simulation.dynamics is None

    def test_empty_schedule_is_inert(self):
        params = _params()
        base = assemble_cps_simulation(
            params,
            faulty=[4, 5],
            seed=1,
            clocks=scenarios.create("drift", "extreme", params),
        )
        base_result = base.run(max_pulses=8)
        controller = ChurnController(
            FaultSchedule(corruptions=2), params
        )
        churned = assemble_cps_simulation(
            params,
            faulty=[4, 5],
            seed=1,
            clocks=scenarios.create("drift", "extreme", params),
            dynamics=controller,
        )
        churn_result = churned.run(max_pulses=8)
        assert churn_result.pulses == base_result.pulses
        assert (
            churn_result.events_processed == base_result.events_processed
        )
        assert controller.applied == []
