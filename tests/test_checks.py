"""Tests for the conformance engine (streaming theorem-bound monitors)."""

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import scenarios
from repro.checks import (
    CPS_MONITORS,
    MONITOR_CATALOG,
    ApaContractionMonitor,
    CheckSet,
    PeriodWindowMonitor,
    ProgressMonitor,
    SkewBoundMonitor,
    StabilizationMonitor,
    TcbConsistencyMonitor,
    Violation,
    applicable_monitors,
    check_scenario,
    conformance_matrix,
    judged_run,
    matrix_payload_bytes,
    render_matrix,
    render_report,
    scenario_case,
    scenario_mode,
)
from repro.cli import main
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.dynamics.schedule import FaultEvent, FaultSchedule
from repro.fuzz import load_fixture, replay_fixture
from repro.scenarios import REGISTRY
from repro.sim.adversary import SilentAdversary
from repro.sync.crusader import BOT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROMOTED = os.path.join(ROOT, "results", "fuzz", "promoted")
#: E8's u_tilde = 16 u corner, hand-written: n = 6, 12 pulses, seed 2.
BROKEN_FIXTURE = os.path.join(PROMOTED, "fuzz-89ee3cb088aca93d.json")


# ----------------------------------------------------------------------
# Monitor unit tests (synthetic event feeds)
# ----------------------------------------------------------------------


class TestViolation:
    def test_describe_includes_context(self):
        violation = Violation(
            monitor="skew",
            message="too wide",
            observed=2.0,
            bound=1.0,
            time=3.5,
            node=4,
            pulse=7,
        )
        text = violation.describe()
        assert "skew" in text
        assert "pulse 7" in text
        assert "node 4" in text

    def test_as_dict_round_trips_json(self):
        violation = Violation("m", "msg", 1.0, 0.5)
        assert json.loads(json.dumps(violation.as_dict()))["monitor"] == "m"


class TestSkewBoundMonitor:
    def test_within_bound_passes_and_frees_state(self):
        monitor = SkewBoundMonitor(bound=1.0, honest_count=2)
        for index in range(1, 4):
            monitor.on_pulse(2.0 * index, 0, index, 0.0)
            monitor.on_pulse(2.0 * index + 0.5, 1, index, 0.0)
        assert monitor.finish().ok
        assert monitor._open == {}

    def test_violation_fires_on_partial_data(self):
        monitor = SkewBoundMonitor(bound=1.0, honest_count=3)
        monitor.on_pulse(0.0, 0, 1, 0.0)
        monitor.on_pulse(1.5, 1, 1, 0.0)  # third node never pulses
        verdict = monitor.finish()
        assert not verdict.ok
        assert verdict.violations[0].pulse == 1
        assert verdict.violations[0].observed == pytest.approx(1.5)

    def test_one_violation_per_index(self):
        monitor = SkewBoundMonitor(bound=0.1, honest_count=3)
        monitor.on_pulse(0.0, 0, 1, 0.0)
        monitor.on_pulse(1.0, 1, 1, 0.0)
        monitor.on_pulse(2.0, 2, 1, 0.0)
        assert len(monitor.violations) == 1


class TestPeriodWindowMonitor:
    def _feed(self, monitor, rounds):
        for index, (early, late) in enumerate(rounds, start=1):
            monitor.on_pulse(early, 0, index, 0.0)
            monitor.on_pulse(late, 1, index, 0.0)

    def test_periods_within_window(self):
        monitor = PeriodWindowMonitor(1.0, 3.0, honest_count=2)
        self._feed(monitor, [(0.0, 0.5), (2.0, 2.5), (4.0, 4.5)])
        verdict = monitor.finish()
        assert verdict.ok
        assert verdict.checked == 2

    def test_min_period_violation(self):
        monitor = PeriodWindowMonitor(1.0, 3.0, honest_count=2)
        # Second round starts 0.6 after the first ends: below P_min=1.
        self._feed(monitor, [(0.0, 0.5), (1.1, 1.5)])
        verdict = monitor.finish()
        assert not verdict.ok
        assert "P_min" in verdict.violations[0].message

    def test_max_period_violation(self):
        monitor = PeriodWindowMonitor(1.0, 3.0, honest_count=2)
        self._feed(monitor, [(0.0, 0.5), (2.0, 3.6)])
        verdict = monitor.finish()
        assert not verdict.ok
        assert "P_max" in verdict.violations[0].message

    def test_incomplete_final_index_skipped(self):
        monitor = PeriodWindowMonitor(1.0, 3.0, honest_count=2)
        self._feed(monitor, [(0.0, 0.5)])
        monitor.on_pulse(0.1, 0, 2, 0.0)  # node 1 never reaches pulse 2
        assert monitor.finish().ok


class TestProgressMonitor:
    def test_all_nodes_progress(self):
        monitor = ProgressMonitor(honest=[0, 1], expected=2)
        for index in (1, 2):
            monitor.on_pulse(float(index), 0, index, 0.0)
            monitor.on_pulse(float(index) + 0.1, 1, index, 0.0)
        assert monitor.finish().ok

    def test_missing_pulses_flagged_at_finish(self):
        monitor = ProgressMonitor(honest=[0, 1], expected=2)
        monitor.on_pulse(1.0, 0, 1, 0.0)
        verdict = monitor.finish()
        messages = [v.message for v in verdict.violations]
        assert any("of the expected 2" in m for m in messages)
        # Both the short node and the silent node are reported.
        assert {v.node for v in verdict.violations} == {0, 1}

    def test_non_increasing_time_flagged(self):
        monitor = ProgressMonitor(honest=[0], expected=2)
        monitor.on_pulse(1.0, 0, 1, 0.0)
        monitor.on_pulse(1.0, 0, 2, 0.0)
        assert not monitor.finish().ok


class TestTcbConsistencyMonitor:
    @staticmethod
    def _summary(pulse_round, estimates):
        return SimpleNamespace(pulse_round=pulse_round, estimates=estimates)

    def test_tight_acceptances_pass(self):
        monitor = TcbConsistencyMonitor(window=0.1, honest_count=2)
        monitor.on_annotate(1.00, 0, "tcb-accept", (1, 5))
        monitor.on_annotate(1.05, 1, "tcb-accept", (1, 5))
        monitor.on_annotate(2.0, 0, "cps-round", self._summary(1, {5: 0.3}))
        monitor.on_annotate(2.1, 1, "cps-round", self._summary(1, {5: 0.3}))
        verdict = monitor.finish()
        assert verdict.ok
        assert verdict.checked == 1

    def test_wide_spread_fires(self):
        monitor = TcbConsistencyMonitor(window=0.1, honest_count=2)
        monitor.on_annotate(1.0, 0, "tcb-accept", (1, 5))
        monitor.on_annotate(1.5, 1, "tcb-accept", (1, 5))
        monitor.on_annotate(2.0, 0, "cps-round", self._summary(1, {5: 0.3}))
        monitor.on_annotate(2.1, 1, "cps-round", self._summary(1, {5: 0.3}))
        verdict = monitor.finish()
        assert not verdict.ok
        violation = verdict.violations[0]
        assert violation.node == 5
        assert violation.observed == pytest.approx(0.5)

    def test_rejected_acceptances_do_not_count(self):
        from repro.sync.crusader import BOT

        monitor = TcbConsistencyMonitor(window=0.1, honest_count=2)
        monitor.on_annotate(1.0, 0, "tcb-accept", (1, 5))
        monitor.on_annotate(1.5, 1, "tcb-accept", (1, 5))
        # Node 1's instance was later rejected to ⊥ — its acceptance
        # must not enter the Lemma 11 group.
        monitor.on_annotate(2.0, 0, "cps-round", self._summary(1, {5: 0.3}))
        monitor.on_annotate(2.1, 1, "cps-round", self._summary(1, {5: BOT}))
        assert monitor.finish().ok

    def test_partial_round_evaluated_at_finish(self):
        monitor = TcbConsistencyMonitor(window=0.1, honest_count=3)
        monitor.on_annotate(1.0, 0, "tcb-accept", (1, 5))
        monitor.on_annotate(1.5, 1, "tcb-accept", (1, 5))
        monitor.on_annotate(2.0, 0, "cps-round", self._summary(1, {5: 0.3}))
        monitor.on_annotate(2.1, 1, "cps-round", self._summary(1, {5: 0.3}))
        # The third summary never arrives; finish still judges the pair.
        assert not monitor.finish().ok


class TestApaContractionMonitor:
    def test_halving_trajectory_passes(self):
        monitor = ApaContractionMonitor()
        monitor.observe_ranges([64.0, 32.0, 16.0, 8.0])
        verdict = monitor.finish()
        assert verdict.ok
        assert verdict.checked == 4  # 3 pairs + cumulative bound

    def test_slow_contraction_fires(self):
        monitor = ApaContractionMonitor()
        monitor.observe_ranges([64.0, 40.0])
        verdict = monitor.finish()
        assert not verdict.ok
        assert verdict.violations[0].observed == pytest.approx(40.0)


class TestCheckSet:
    def test_fans_out_and_aggregates(self):
        skew = SkewBoundMonitor(bound=0.1, honest_count=2)
        progress = ProgressMonitor(honest=[0, 1], expected=1)
        checks = CheckSet([skew, progress])
        checks.on_pulse(0.0, 0, 1, 0.0)
        checks.on_pulse(5.0, 1, 1, 5.0)
        verdicts = checks.finish()
        assert [v.monitor for v in verdicts] == ["skew", "progress"]
        assert [v.ok for v in verdicts] == [False, True]
        assert [len(v.violations) for v in verdicts] == [1, 0]


# ----------------------------------------------------------------------
# Monitor.compare: each site but the post-resync envelope can fail, and
# every site keeps its headroom
# ----------------------------------------------------------------------


def _skew_over():
    monitor = SkewBoundMonitor(bound=1.0, honest_count=2)
    monitor.on_pulse(0.0, 0, 1, 0.0)
    monitor.on_pulse(1.5, 1, 1, 0.0)
    return monitor


def _periods(rounds):
    monitor = PeriodWindowMonitor(1.0, 3.0, honest_count=2)
    for index, (early, late) in enumerate(rounds, start=1):
        monitor.on_pulse(early, 0, index, 0.0)
        monitor.on_pulse(late, 1, index, 0.0)
    return monitor


def _tcb_over():
    monitor = TcbConsistencyMonitor(window=0.1, honest_count=2)
    monitor.on_annotate(1.0, 0, "tcb-accept", (1, 5))
    monitor.on_annotate(1.5, 1, "tcb-accept", (1, 5))
    summary = SimpleNamespace(pulse_round=1, estimates={5: 0.3})
    monitor.on_annotate(2.0, 0, "cps-round", summary)
    monitor.on_annotate(2.1, 1, "cps-round", summary)
    return monitor


def _apa(ranges):
    monitor = ApaContractionMonitor()
    monitor.observe_ranges(ranges)
    return monitor


def _stabilization(pulses, events=(), budget=1):
    """Two nodes, envelope 1: ``pulses`` maps node -> train; node 1
    recovers at t = 1 when ``events`` schedule it."""
    monitor = StabilizationMonitor(
        FaultSchedule(tuple(events)), 2, envelope=1.0,
        resync_budget=budget, tail_window=100.0,
    )
    if events:
        monitor.on_annotate(1.0, 1, "churn", {"action": "recover"})
    for node, times in pulses.items():
        for index, time in enumerate(times, start=1):
            monitor.on_pulse(time, node, index, time)
    return monitor


RECOVER_1 = (FaultEvent("crash", 1, at=0.5), FaultEvent("recover", 1, at=1.0))


def _violation(monitor, message, observed, bound, time=None, node=None,
               pulse=None):
    return {
        "monitor": monitor, "message": message, "observed": observed,
        "bound": bound, "time": time, "node": node, "pulse": pulse,
    }


#: One feed per compare site, each with a single value over its bound,
#: and the violation the monitor recorded before compare existed.
OVER_BOUND = {
    "skew": (_skew_over, _violation(
        "skew", "pulse skew exceeds the Theorem 17 bound S", 1.5, 1.0,
        time=1.5, node=1, pulse=1,
    )),
    "p_min": (lambda: _periods([(0.0, 0.5), (1.0, 1.25)]), _violation(
        "period", "period below the Theorem 17 minimum P_min", 0.5, 1.0,
        time=1.25, pulse=2,
    )),
    "p_max": (lambda: _periods([(0.0, 0.5), (2.0, 3.5)]), _violation(
        "period", "period above the Theorem 17 maximum P_max", 3.5, 3.0,
        time=3.5, pulse=2,
    )),
    "lemma-11": (_tcb_over, _violation(
        "tcb-consistency",
        "acceptances of dealer 5 spread beyond the Lemma 11 window",
        0.5, 0.1, time=1.5, node=5, pulse=1,
    )),
    "apa-iteration": (lambda: _apa([64.0, 16.0, 10.0]), _violation(
        "apa-contraction", "iteration 2 contracted 16 -> 10 (needs halving)",
        10.0, 8.0, pulse=2,
    )),
    # Each step halves up to the tolerance; the sum of the slack does
    # not, so only the cumulative bound fails.
    "apa-cumulative": (lambda: _apa([0.0, 0.8e-9, 1.2e-9]), _violation(
        "apa-contraction",
        "final range after 2 iterations exceeds the cumulative bound",
        1.2e-9, 0.0, pulse=2,
    )),
    # Node 1's first post-recovery pulse is 2 off node 0's train: it
    # re-stabilizes on its second pulse, over the budget of one.
    "resync-budget": (lambda: _stabilization(
        {0: [5.0, 10.0, 15.0, 50.0], 1: [7.0, 10.0, 15.0]}, RECOVER_1
    ), _violation(
        "stabilization",
        "node 1 took 2 pulses to re-stabilize after its recover",
        2.0, 1.0, time=1.0, node=1,
    )),
    # No event: both nodes are the stable cohort, 2 > S = 1 apart.
    "stable-cohort": (lambda: _stabilization(
        {0: [5.0, 10.0], 1: [7.0, 10.0]}
    ), _violation(
        "stabilization",
        "stable cohort skew exceeds the Theorem 17 bound S", 2.0, 1.0,
    )),
}


class TestCompare:
    @pytest.mark.parametrize("site", sorted(OVER_BOUND))
    def test_each_site_fails_with_its_violation(self, site):
        feed, expected = OVER_BOUND[site]
        verdict = feed().finish()
        assert [v.as_dict() for v in verdict.violations] == [expected]
        assert verdict.worst.monitor == expected["monitor"]
        assert verdict.worst.ratio > 1
        assert "worst" not in verdict.as_dict()

    def test_worst_keeps_the_closest_comparison(self):
        verdict = _periods([(0.0, 0.5), (2.0, 2.5), (4.5, 5.0)]).finish()
        assert verdict.ok
        # P_max's 5.0 - 2.0 = 3.0 grazes the bound at pulse 3.
        assert (verdict.worst.ratio, verdict.worst.pulse) == (1.0, 3)
        assert verdict.worst.node is None

    def test_a_lower_bound_ratio_is_bound_over_observed(self):
        worst = _periods([(0.0, 0.5), (1.0, 1.25)]).finish().worst
        assert (worst.ratio, worst.observed, worst.bound) == (2.0, 0.5, 1.0)

    def test_skew_headroom_is_the_widest_index(self):
        monitor = SkewBoundMonitor(bound=1.0, honest_count=2)
        for time, node, index in [(0.0, 0, 1), (0.0, 0, 2), (0.25, 1, 1),
                                  (0.75, 1, 2), (1.0, 0, 3)]:
            monitor.on_pulse(time, node, index, time)
        # Index 2 (0.75) is complete; index 3 is left open at the end.
        worst = monitor.finish().worst
        assert (worst.ratio, worst.pulse, worst.node) == (0.75, 2, 1)
        monitor = SkewBoundMonitor(bound=1.0, honest_count=3)
        monitor.on_pulse(0.0, 0, 1, 0.0)
        monitor.on_pulse(0.5, 1, 1, 0.5)
        assert monitor.finish().worst.ratio == 0.5

    def test_a_flagged_skew_index_is_not_compared_again(self):
        monitor = SkewBoundMonitor(bound=1.0, honest_count=3)
        for time, node in [(0.0, 0), (1.5, 1), (3.0, 2)]:
            monitor.on_pulse(time, node, 1, time)
        verdict = monitor.finish()
        assert len(verdict.violations) == 1
        assert verdict.worst.ratio == 1.5

    def test_post_resync_envelope_is_compared(self):
        # This comparison only records headroom: it cannot fail, since
        # the report's envelope is the worst of values it already held
        # to the same bound.  It still sets the headroom: 0.5 of S,
        # above the resync ratio 1/4.
        verdict = _stabilization(
            {0: [5.0, 10.0, 50.0], 1: [5.5, 10.5]}, RECOVER_1, budget=4
        ).finish()
        assert verdict.ok
        assert (verdict.worst.ratio, verdict.worst.node) == (0.5, 1)

    def test_a_bound_that_holds_at_zero_has_a_finite_ratio(self):
        verdicts = [_apa([0.0, 0.0]).finish() for _ in range(2)]
        assert verdicts[0].ok and verdicts[0].worst.ratio == 1.0
        # Never NaN: equal runs give equal verdicts.
        assert verdicts[0] == verdicts[1]

    def test_a_non_positive_period_is_infinitely_over(self):
        verdict = _periods([(0.0, 0.5), (0.5, 1.0)]).finish()
        assert not verdict.ok
        assert verdict.worst.ratio == float("inf")

    def test_no_comparison_no_worst(self):
        monitor = ProgressMonitor([0], expected=1)
        monitor.on_pulse(1.0, 0, 1, 1.0)
        assert monitor.finish().worst is None

    def test_render_report_prints_each_worst(self):
        report = check_scenario("delay", "maximum")
        lines = render_report(report).splitlines()
        worst = [line for line in lines if line.startswith("    worst")]
        assert len(worst) == sum(
            v.worst is not None for v in report.verdicts
        ) == 3  # skew, period, tcb-consistency; progress compares none


# ----------------------------------------------------------------------
# Scheduler integration: attach_checks
# ----------------------------------------------------------------------


class _RecordingChecks(CheckSet):
    """A CheckSet that also journals every callback it receives."""

    __slots__ = ("pulses", "annotations")

    def __init__(self, monitors=()):
        super().__init__(monitors)
        self.pulses = []
        self.annotations = []

    def on_pulse(self, time, node, index, local_time):
        self.pulses.append((node, index, time))
        super().on_pulse(time, node, index, local_time)

    def on_annotate(self, time, node, kind, details):
        self.annotations.append(kind)
        super().on_annotate(time, node, kind, details)


class TestChecksHook:
    def _build(self, checks=None, trace="none"):
        params = derive_parameters(1.001, 1.0, 0.02, 6)
        faulty = list(range(6 - params.f, 6))
        simulation = assemble_cps_simulation(
            params,
            faulty=faulty,
            behavior=SilentAdversary(),
            seed=7,
            clocks=scenarios.create("drift", "extreme", params),
            trace=trace,
        )
        simulation.attach_checks(checks)
        return simulation

    def test_hook_sees_every_pulse_and_annotation(self):
        checks = _RecordingChecks()
        result = self._build(checks=checks).run(max_pulses=5)
        observed = {}
        for node, index, time in checks.pulses:
            observed.setdefault(node, []).append(time)
        assert observed == result.honest_pulses()
        assert "cps-round" in checks.annotations
        assert "tcb-accept" in checks.annotations

    def test_hook_does_not_perturb_execution(self):
        plain = self._build().run(max_pulses=5)
        checked = self._build(checks=_RecordingChecks()).run(max_pulses=5)
        assert plain.pulses == checked.pulses
        assert plain.events_processed == checked.events_processed

    def test_annotations_flow_at_none_trace_level(self):
        """The hook is independent of the trace level: Lemma 11 data
        arrives even when no ProtocolRecord is ever allocated."""
        checks = _RecordingChecks()
        result = self._build(checks=checks, trace="none").run(
            max_pulses=5
        )
        assert "tcb-accept" in checks.annotations
        assert len(result.trace.protocol_events()) == 0

    def test_attach_checks_after_construction(self):
        simulation = self._build()
        checks = _RecordingChecks()
        simulation.attach_checks(checks)
        simulation.run(max_pulses=3)
        assert checks.pulses


# ----------------------------------------------------------------------
# Conformance runs over the registry
# ----------------------------------------------------------------------


class TestMonitorCatalog:
    """checks/catalog.py is the one source of names, claims and modes."""

    def test_every_monitor_reads_its_claim_from_the_catalog(self):
        from repro.checks import Monitor, monitors

        classes = [
            value for value in vars(monitors).values()
            if isinstance(value, type)
            and issubclass(value, Monitor)
            and value is not Monitor
        ]
        assert sorted(cls.name for cls in classes) == sorted(
            MONITOR_CATALOG
        )
        for cls in classes:
            assert cls.claim is MONITOR_CATALOG[cls.name]

    def test_modes_name_only_catalog_monitors(self):
        from repro.checks import MODE_MONITORS

        named = [name for names in MODE_MONITORS.values() for name in names]
        assert sorted(named) == sorted(MONITOR_CATALOG)


class TestScenarioApplicability:
    def test_modes_cover_the_whole_registry(self):
        from repro.checks import MODE_MONITORS

        for entry in REGISTRY.entries():
            mode = scenario_mode(entry.kind, entry.key)
            assert mode in ("cps", "apa", "churn")
            monitors = applicable_monitors(entry.kind, entry.key)
            assert monitors == MODE_MONITORS[mode]
            if entry.kind == "churn":
                assert mode == "churn"

    def test_apa_mode_is_exactly_the_apa_tagged_adversaries(self):
        apa = {
            entry.key
            for entry in REGISTRY.entries("adversary")
            if "apa" in entry.tags
        }
        assert apa == {
            entry.key
            for entry in REGISTRY.entries("adversary")
            if scenario_mode("adversary", entry.key) == "apa"
        }

    def test_scenario_case_plugs_key_into_base(self):
        case = scenario_case("delay", "eclipse")
        assert case["delay"] == "eclipse"
        assert case["adversary"] == "silent"
        assert scenario_case("topology", "circulant")["n"] == 8


class TestCheckScenario:
    def test_cps_scenario_reports_all_monitors(self):
        report = check_scenario("adversary", "mimic-split")
        assert report.ok
        assert tuple(v.monitor for v in report.verdicts) == CPS_MONITORS
        assert all(v.checked > 0 for v in report.verdicts)
        assert "PASS" in render_report(report)

    def test_apa_scenario_reports_contraction(self):
        report = check_scenario("adversary", "split-bot")
        assert report.ok
        assert report.mode == "apa"
        assert [v.monitor for v in report.verdicts] == ["apa-contraction"]

    def test_errors_are_tabulated_not_raised(self):
        with pytest.raises(Exception):
            REGISTRY.get("adversary", "no-such-key")
        report = check_scenario("adversary", "no-such-key")
        assert not report.ok
        assert report.error is not None


class TestConformanceMatrix:
    def test_every_registry_scenario_passes_quick(self):
        """The acceptance criterion: PASS for every applicable
        scenario x monitor pair at quick scale."""
        payload = conformance_matrix("quick")
        assert payload["total"] == len(REGISTRY)
        assert payload["failed"] == []
        assert payload["pass"] is True
        from repro.checks import MODE_MONITORS

        for entry in payload["scenarios"]:
            assert entry["ok"], entry
            expected = MODE_MONITORS[entry["mode"]]
            assert tuple(
                v["monitor"] for v in entry["verdicts"]
            ) == expected
            assert all(v["ok"] for v in entry["verdicts"])

    def test_matrix_payload_is_deterministic(self):
        one = conformance_matrix("quick", kinds=("drift",))
        two = conformance_matrix("quick", kinds=("drift",))
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )

    def test_render_lists_every_scenario(self):
        payload = conformance_matrix("quick", kinds=("topology",))
        text = render_matrix(payload)
        for entry in REGISTRY.entries("topology"):
            assert entry.qualified in text
        assert "PASS" in text

    def test_monitor_catalog_matches_columns(self):
        payload = conformance_matrix("quick", kinds=("topology",))
        assert payload["monitors"] == list(MONITOR_CATALOG)

    def test_matrix_bytes_match_committed_baseline(self):
        """The telemetry-overhead acceptance gate: with instrumentation
        disabled (the default), the full 32-scenario matrix reproduces
        the committed ``results/conformance.json`` byte for byte."""
        baseline = os.path.join(
            os.path.dirname(__file__), "..", "results", "conformance.json"
        )
        with open(baseline, "rb") as handle:
            expected = handle.read()
        payload = conformance_matrix("quick", seed=0)
        assert matrix_payload_bytes(payload) == expected

    def test_matrix_bytes_unchanged_under_telemetry(self):
        """An active telemetry handle observes but never perturbs:
        verdict payloads stay byte-identical."""
        from repro.telemetry import Telemetry, telemetry_session

        bare = matrix_payload_bytes(
            conformance_matrix("quick", kinds=("drift",))
        )
        telemetry = Telemetry()
        with telemetry_session(telemetry):
            instrumented = matrix_payload_bytes(
                conformance_matrix("quick", kinds=("drift",))
            )
        assert instrumented == bare
        assert telemetry.counters["pulses.recorded"] > 0


class TestBrokenFixture:
    def test_monitors_fire_on_the_broken_execution(self):
        """The acceptance criterion: the deliberately-broken adversary
        fixture reports at least one Violation."""
        run = replay_fixture(load_fixture(BROKEN_FIXTURE))
        violations = run.violations()
        assert violations
        skew = [v for v in violations if v.monitor == "skew"]
        assert skew, "the u_tilde >> u corner must break the skew bound"
        assert all(v.observed > v.bound for v in skew)
        # The run itself stays live — only the bound breaks.
        assert run.result.honest_pulses()

    @pytest.mark.parametrize(
        "fixture,estimates",
        [
            ("fuzz-89ee3cb088aca93d.json", 220),
            ("fuzz-db8544187c7276e8.json", 45),
        ],
    )
    def test_lemma11_pass_is_vacuous_under_the_rushing_echo(
        self, fixture, estimates
    ):
        """The rushing echo gets every dealer rejected: each honest
        node's estimate of every other dealer is ⊥, so no acceptance
        survives for the Lemma 11 monitor to compare and its PASS
        checks nothing."""
        payload = load_fixture(os.path.join(PROMOTED, fixture))
        assert payload["case"]["adversary"] == "rushing-echo"
        run = judged_run(
            payload["case"], payload["pulses"], payload["seed"],
            trace="full",
        )
        others = [
            estimate
            for record in run.result.trace.protocol_events("cps-round")
            for dealer, estimate in record.details.estimates.items()
            if dealer != record.node
        ]
        assert len(others) == estimates
        assert all(estimate is BOT for estimate in others)
        (lemma11,) = [
            verdict
            for verdict in run.verdicts
            if verdict.monitor == TcbConsistencyMonitor.name
        ]
        assert lemma11.ok and lemma11.checked == 0


# ----------------------------------------------------------------------
# Differential: trace levels and monitor verdicts (satellite 2)
# ----------------------------------------------------------------------


#: Seeded sample across all four registry kinds.
DIFFERENTIAL_SAMPLE = (
    ("adversary", "mimic-split", 101),
    ("adversary", "coordinated-offset", 202),
    ("delay", "eclipse", 303),
    ("drift", "staggered", 404),
    ("topology", "circulant", 505),
)


class TestTraceLevelDifferential:
    @pytest.mark.parametrize("kind,key,seed", DIFFERENTIAL_SAMPLE)
    def test_pulses_and_verdicts_identical_across_levels(
        self, kind, key, seed
    ):
        case = scenario_case(kind, key)
        by_level = {}
        for level in ("none", "full"):
            run = judged_run(case, pulses=6, seed=seed, trace=level)
            by_level[level] = (
                run.result.pulses,
                run.result.events_processed,
                [v.as_dict() for v in run.verdicts],
            )
        assert by_level["none"] == by_level["full"]


# ----------------------------------------------------------------------
# CLI: repro check ...
# ----------------------------------------------------------------------


class TestCheckCli:
    def test_list_names_every_monitor(self, capsys):
        assert main(["check", "list"]) == 0
        out = capsys.readouterr().out
        for name in MONITOR_CATALOG:
            assert name in out

    def test_run_single_scenario(self, capsys):
        assert main(["check", "run", "eclipse"]) == 0
        out = capsys.readouterr().out
        assert "delay:eclipse" in out
        assert "PASS" in out

    def test_run_with_monitor_filter(self, capsys):
        assert (
            main(
                [
                    "check", "run", "random", "--kind", "drift",
                    "--monitor", "skew",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skew" in out
        assert "tcb-consistency" not in out

    def test_matrix_writes_verdicts_json(self, tmp_path, capsys):
        out_path = os.path.join(tmp_path, "conformance.json")
        assert (
            main(
                [
                    "check", "matrix", "--kind", "drift",
                    "--out", out_path,
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "drift:staggered" in text
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["pass"] is True
        assert payload["total"] == len(REGISTRY.entries("drift"))

    def test_fixture_detects_violations(self, capsys, monkeypatch):
        # With no --fixture, every promoted file is replayed.
        monkeypatch.chdir(ROOT)
        assert main(["check", "fixture"]) == 0
        out = capsys.readouterr().out
        names = sorted(os.listdir(PROMOTED))
        assert len(names) >= 3
        for name in names:
            assert f"{name[:-len('.json')]} fixture raised" in out
        assert "NO violations" not in out

    def test_fixture_contradicting_its_file_exits_1(self, tmp_path, capsys):
        payload = dict(load_fixture(BROKEN_FIXTURE), expect="pass")
        path = os.path.join(tmp_path, "contradicted.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert (
            main(["check", "fixture", "--fixture", BROKEN_FIXTURE, path])
            == 1
        )
        out = capsys.readouterr().out
        assert "CONTRADICTS" in out
        # The good file before it was still replayed.
        assert "the monitors fire" in out

    def test_fixture_takes_paths_only(self):
        with pytest.raises(SystemExit, match="not found: broken"):
            main(["check", "fixture", "--fixture", "broken"])

    def test_fixture_path_that_is_a_directory_exits_in_one_line(self):
        with pytest.raises(SystemExit) as info:
            main(["check", "fixture", "--fixture", PROMOTED])
        assert info.value.code == f"{PROMOTED} cannot be read: Is a directory"

    def test_filtered_matrix_keeps_the_committed_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        os.makedirs("results")
        committed = os.path.join("results", "conformance.json")
        with open(committed, "w", encoding="utf-8") as handle:
            handle.write("committed\n")
        assert main(["check", "matrix", "--kind", "drift"]) == 0
        out = capsys.readouterr().out
        assert "pass --out explicitly" in out
        with open(committed, encoding="utf-8") as handle:
            assert handle.read() == "committed\n"


class TestCheckCliErrors:
    def test_unknown_scenario_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'eclipse'"):
            main(["check", "run", "eclips"])

    def test_ambiguous_key_requires_kind(self):
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["check", "run", "random"])

    def test_unknown_monitor_suggests_close_match(self):
        with pytest.raises(SystemExit, match="did you mean 'skew'"):
            main(["check", "run", "eclipse", "--monitor", "skw"])

    def test_non_applicable_monitor_is_rejected(self):
        with pytest.raises(SystemExit, match="not applicable"):
            main(
                [
                    "check", "run", "eclipse",
                    "--monitor", "apa-contraction",
                ]
            )

    def test_apa_scenario_rejects_cps_monitor(self):
        with pytest.raises(SystemExit, match="not applicable"):
            main(["check", "run", "split-bot", "--monitor", "skew"])


class TestVerdictFiltering:
    def test_report_filter_keeps_requested_monitors(self):
        report = check_scenario("delay", "minimum")
        filtered = replace(
            report,
            verdicts=tuple(
                v for v in report.verdicts if v.monitor == "skew"
            ),
        )
        assert [v.monitor for v in filtered.verdicts] == ["skew"]
        assert filtered.ok
