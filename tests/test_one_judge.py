"""One judge: every table verdict comes from ``repro.checks``.

Every CPS experiment row comes from
:func:`repro.campaigns.builders.cps_measurement`, whose ``within`` /
``periods_within`` are the ``skew`` / ``period`` verdicts of
:func:`repro.checks.conformance.judge_pulses`; every other table
verdict is one of the named ``judge_*`` functions beside it, and no
module under ``repro/campaigns`` compares a measurement with a bound.
Every comparison of a measurement with a bound is
:func:`repro.analysis.metrics.within` or ``at_least``.  The facade is
stubbed where a test needs a pulse train no protocol run produces, and
each judge is fed a planted input it must reject.
"""

import ast
import math
import pathlib
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.metrics import at_least, within
from repro.build import BuiltSimulation
from repro.campaigns.builders import STRESS_KEYS, resolve_builder
from repro.campaigns.spec import MeasurementSpec
from repro.checks import (
    ApaContractionMonitor,
    PeriodWindowMonitor,
    SkewBoundMonitor,
    StabilizationMonitor,
    TcbConsistencyMonitor,
    judge_apa,
    judge_crusader,
    judge_estimates,
    judge_lower_bound,
    judge_steady_skew,
)
from repro.core.params import RELATIVE_TOLERANCE as TOLERANCE
from repro.core.params import derive_parameters
from repro.dynamics.schedule import FaultEvent, FaultSchedule
from repro.sim.scheduler import SimulationResult
from repro.sim.vectorized import VectorizedSimulation
from repro.sync.crusader import BOT

PARAMS = derive_parameters(1.001, 1.0, 0.01, 4)
HONEST = [0, 1, 2]
CASE = {"n": 4, "theta": 1.001, "d": 1.0, "u": 0.01}
MEASUREMENT = MeasurementSpec(pulses=6, warmup=2)
CPS_ROW_BUILDERS = ("cps-stress", "cps-run")


class _StubSimulation:
    """A finished run with a prescribed pulse train."""

    honest, faulty = HONEST, [3]

    def __init__(self, pulses):
        self.pulses = pulses

    def run(self, max_pulses=None, until=None):
        if self.pulses is None:
            raise RuntimeError("boom")
        return SimulationResult(
            pulses={**self.pulses, 3: []},
            honest=HONEST,
            trace=None,
            events_processed=17,
        )

    def protocol(self, node):
        return self  # ``summaries`` is all a row builder reads

    summaries = ()


def _stub_facade(monkeypatch, pulses):
    def build_simulation(case, backend="event", seed=0, trace="none"):
        return BuiltSimulation(
            _StubSimulation(pulses),
            PARAMS,
            PARAMS.f,
            {"d_eff": 1.0, "u_eff": 0.01},
            backend,
        )

    monkeypatch.setattr("repro.build.build_simulation", build_simulation)


def _train(first_spread, count=6):
    """Pulses a legal period apart; only the first one is spread."""
    period = (PARAMS.p_min_bound + PARAMS.p_max_bound) / 2.0
    return {
        v: [
            1.0 + period * i + (first_spread * v / 2.0 if i == 0 else 0.0)
            for i in range(count)
        ]
        for v in HONEST
    }


@pytest.mark.parametrize("name", CPS_ROW_BUILDERS)
def test_warm_up_is_not_excused(monkeypatch, name):
    # Theorem 17 bounds every pulse (the build validates H_v(0) in
    # [0, S]); at the parent cps-stress read steady_skew and said True.
    _stub_facade(monkeypatch, _train(first_spread=2.0 * PARAMS.S))
    row = resolve_builder(name)(CASE, MEASUREMENT, 0)
    assert row["max_skew"] == pytest.approx(2.0 * PARAMS.S)
    assert row["within"] is False
    if name != "cps-stress":
        assert row["steady_skew"] == 0.0 and row["periods_within"]


@pytest.mark.parametrize("name", CPS_ROW_BUILDERS)
def test_a_train_inside_every_bound_is_within(monkeypatch, name):
    _stub_facade(monkeypatch, _train(first_spread=0.5 * PARAMS.S))
    assert resolve_builder(name)(CASE, MEASUREMENT, 0)["within"] is True


@pytest.mark.parametrize("pulses", [None, _train(0.0, count=3)])
@pytest.mark.parametrize("name", CPS_ROW_BUILDERS)
def test_a_dead_run_tabulates(monkeypatch, name, pulses):
    # The run raised, or stopped short of its quota.
    _stub_facade(monkeypatch, pulses)
    row = resolve_builder(name)(CASE, MEASUREMENT, 0)
    assert row["max_skew"] == math.inf and row["within"] is False
    assert row["events"] == (0 if pulses is None else 17)
    if name != "cps-stress":
        assert math.isnan(row["min_period"])
        assert row["live"] is False and row["periods_within"] is False


@pytest.mark.parametrize("pulses", [None, _train(0.5 * PARAMS.S)])
def test_one_cps_run_row_serves_five_tables(monkeypatch, pulses):
    # E3 reads the estimates, E8 the rejections, E10 the trajectory;
    # the last two exist only for a live run.
    _stub_facade(monkeypatch, pulses)
    row = resolve_builder("cps-run")(CASE, MEASUREMENT, 0)
    assert row["rejections"] == 0
    if pulses is None:
        assert "trajectory" not in row and "accepts" not in row
    else:
        assert row["validity_within"] and row["consistency_within"]
        assert len(row["trajectory"]) == MEASUREMENT.pulses


def test_stress_records_keep_their_nine_keys():
    # Digested by the repo benchmark: key set, order and values.
    assert STRESS_KEYS == (
        "f", "max_skew", "steady_skew", "bound_S", "within", "live",
        "events", "d_eff", "u_eff",
    )
    row = resolve_builder("cps-stress")(
        {**CASE, "n": 6, "delay": "random"}, MEASUREMENT, 0
    )
    assert tuple(row) == STRESS_KEYS and row["within"] and row["live"]


def test_a_vectorized_stress_trial_runs_unobserved(monkeypatch):
    # E9-SCALE reaches n = 10,000 because nothing is attached:
    # observing materialises O(n^2) annotation objects per round.
    def refuse(self, *args, **kwargs):
        raise AssertionError("the trial attached an observer")

    monkeypatch.setattr(VectorizedSimulation, "_collect_round", refuse)
    monkeypatch.setattr(VectorizedSimulation, "attach_checks", refuse)
    row = resolve_builder("cps-stress")(
        {"n": 40, "theta": 1.001, "d": 1.0, "u": 0.01},
        MeasurementSpec(pulses=5, warmup=2, backend="vectorized"),
        0,
    )
    assert row["within"] and row["live"]


# ----------------------------------------------------------------------
# ``within`` is the comparison every monitor's verdict flips on
# ----------------------------------------------------------------------


# Each probe feeds one monitor a single observation ``value`` against
# ``bound`` and returns (verdict.ok, the float the monitor compared).


def _skew(value, bound):
    monitor = SkewBoundMonitor(bound, 2)
    monitor.on_pulse(5.0, 0, 1, 5.0)
    monitor.on_pulse(5.0 + value, 1, 1, 5.0)
    return monitor.finish().ok, (5.0 + value) - 5.0


def _period(value, bound, upper=True):
    # Two single-node pulses ``value`` apart; the other side is slack.
    monitor = (
        PeriodWindowMonitor(0.0, bound, 1)
        if upper
        else PeriodWindowMonitor(bound, math.inf, 1)
    )
    monitor.on_pulse(5.0, 0, 1, 5.0)
    monitor.on_pulse(5.0 + value, 0, 2, 5.0)
    return monitor.finish().ok, (5.0 + value) - 5.0


def _tcb(value, bound):
    monitor = TcbConsistencyMonitor(bound, 2)
    for node, time in ((0, 5.0), (1, 5.0 + value)):
        monitor.on_annotate(time, node, "tcb-accept", (1, 2))
    summary = SimpleNamespace(pulse_round=1, estimates={2: 0.0})
    for node in (0, 1):
        monitor.on_annotate(9.0, node, "cps-round", summary)
    return monitor.finish().ok, (5.0 + value) - 5.0


def _apa(value, bound):
    # One iteration: the halving and the cumulative bound coincide.
    monitor = ApaContractionMonitor()
    monitor.observe_ranges([2.0 * bound, value])
    return monitor.finish().ok, value


def _stabilization(value, bound):
    # Node 1 recovers at t = 1 and pulses ``value`` off node 0's train.
    schedule = FaultSchedule(
        [FaultEvent("crash", 1, at=0.5), FaultEvent("recover", 1, at=1.0)]
    )
    monitor = StabilizationMonitor(
        schedule, 2, envelope=bound, resync_budget=1, tail_window=100.0
    )
    monitor.on_annotate(1.0, 1, "churn", {"action": "recover"})
    monitor.on_pulse(5.0, 0, 1, 5.0)
    monitor.on_pulse(5.0 + value, 1, 1, 5.0)
    monitor.on_pulse(50.0, 0, 2, 50.0)
    return monitor.finish().ok, (5.0 + value) - 5.0


UPPER_BOUNDED = {
    "skew": _skew,
    "period": _period,
    "tcb-consistency": _tcb,
    "apa-contraction": _apa,
    "stabilization": _stabilization,
}

#: Either side of the flip point and on it: bound ± 1e-9 ± 1e-12.
OFFSETS = st.sampled_from(
    [
        sign * TOLERANCE + nudge
        for sign in (-1.0, 1.0)
        for nudge in (-1e-12, 0.0, 1e-12)
    ]
)
BOUNDS = st.floats(min_value=0.25, max_value=4.0)


@pytest.mark.parametrize("name", sorted(UPPER_BOUNDED))
@given(BOUNDS, OFFSETS)
def test_an_upper_bound_verdict_is_within(name, bound, offset):
    ok, observed = UPPER_BOUNDED[name](bound + offset, bound)
    assert ok == within(observed, bound)
    if abs(offset) != TOLERANCE:  # on the flip point rounding decides
        assert ok == (offset < TOLERANCE)


@given(BOUNDS, OFFSETS)
def test_the_minimum_period_verdict_is_at_least(bound, offset):
    ok, observed = _period(bound + offset, bound, upper=False)
    assert ok == at_least(observed, bound)
    if abs(offset) != TOLERANCE:
        assert ok == (offset > -TOLERANCE)


def test_within_and_at_least_flip_at_the_tolerance():
    assert within(1.0 + TOLERANCE, 1.0) and not within(1.0 + 2e-9, 1.0)
    assert at_least(1.0 - TOLERANCE, 1.0) and not at_least(1.0 - 2e-9, 1.0)
    assert not within(math.nan, 1.0) and not at_least(math.nan, 1.0)


# ----------------------------------------------------------------------
# Each named judge rejects a planted input
# ----------------------------------------------------------------------


def _apa_result(ranges, outputs, inputs=(0.0, 4.0)):
    return SimpleNamespace(
        ranges=lambda: list(ranges),
        inputs=dict(enumerate(inputs)),
        outputs=dict(enumerate(outputs)),
    )


class TestJudgeApa:
    def test_a_halving_run_inside_the_inputs_passes(self):
        contraction, validity = judge_apa(
            _apa_result([4.0, 2.0, 1.0], [1.0, 2.0])
        )
        assert contraction.ok and contraction.checked == 3 and validity

    def test_a_range_that_does_not_halve_fails(self):
        # Iteration 1 does not halve; the cumulative bound 4 / 2^2 holds.
        contraction, validity = judge_apa(
            _apa_result([4.0, 3.0, 0.5], [1.0, 2.0])
        )
        assert contraction.monitor == ApaContractionMonitor.name
        assert not contraction.ok and validity
        assert [
            (v.pulse, v.observed, v.bound) for v in contraction.violations
        ] == [(1, 3.0, 2.0)]

    @pytest.mark.parametrize("outside", [-0.5, 4.5])
    def test_an_output_outside_the_inputs_range_fails(self, outside):
        contraction, validity = judge_apa(_apa_result([4.0, 1.0], [outside]))
        assert contraction.ok and not validity


class TestJudgeCrusader:
    def test_agreement_and_bot_pass(self):
        assert judge_crusader({0: 1, 1: 1}, 1, False) == (True, True)
        assert judge_crusader({0: 0, 1: BOT}, 1, True) == (True, True)

    def test_two_non_bot_outputs_fail_consistency(self):
        assert judge_crusader({0: 0, 1: 1, 2: BOT}, 1, True) == (
            True,
            False,
        )

    def test_an_honest_dealer_with_the_wrong_value_fails_validity(self):
        assert judge_crusader({0: 0, 1: 0}, 1, False) == (False, True)


class TestJudgeEstimates:
    DELTA = 0.1
    #: Node w's pulse is at 10 + w / 2, so w's true offset from v is
    #: (w - v) / 2.
    PULSES = {0: [10.0], 1: [10.5], 2: [11.0]}

    def _judge(self, estimates):
        protocols = {
            v: SimpleNamespace(
                summaries=[SimpleNamespace(pulse_round=1, estimates=e)]
            )
            for v, e in estimates.items()
        }
        simulation = SimpleNamespace(
            faulty=[3], protocol=protocols.__getitem__
        )
        return judge_estimates(simulation, self.PULSES, 1, self.DELTA)

    def _estimates(self, honest_error=0.0, faulty_gap=0.0):
        """Exact estimates, plus one planted error of each lemma."""
        return {
            v: {
                **{w: (w - v) / 2.0 for w in self.PULSES if w != v},
                # Faulty dealer 3 looks 1.0 after node 0's pulse.
                3: 1.0 - v / 2.0 + (faulty_gap if v == 1 else 0.0),
            }
            for v in self.PULSES
        }

    def test_exact_estimates_pass(self):
        verdict = self._judge(self._estimates())
        assert verdict.accepts == 6 and verdict.faulty_accepted == 3
        assert verdict.validity_within and verdict.consistency_within
        assert verdict.validity_err == pytest.approx(0.0)
        assert verdict.consistency_err == pytest.approx(0.0)

    def test_an_honest_dealer_estimate_off_by_more_than_delta(self):
        estimates = self._estimates()
        estimates[0][1] += 2.0 * self.DELTA
        verdict = self._judge(estimates)
        assert verdict.validity_err == pytest.approx(2.0 * self.DELTA)
        assert not verdict.validity_within
        assert verdict.consistency_within

    def test_a_faulty_dealer_pair_more_than_delta_apart(self):
        verdict = self._judge(self._estimates(faulty_gap=3 * self.DELTA))
        assert verdict.consistency_err == pytest.approx(3 * self.DELTA)
        assert not verdict.consistency_within
        assert verdict.validity_within

    def test_bot_estimates_are_not_judged(self):
        estimates = self._estimates(faulty_gap=3 * self.DELTA)
        estimates[1][3] = BOT
        estimates[0][1] = BOT
        verdict = self._judge(estimates)
        assert verdict.accepts == 5 and verdict.faulty_accepted == 2
        assert verdict.validity_within and verdict.consistency_within


def test_judge_lower_bound_owns_two_thirds_u_tilde():
    assert judge_lower_bound(0.6, 0.9) == (pytest.approx(0.6), True)
    bound, met = judge_lower_bound(0.5, 0.9)
    assert bound == pytest.approx(0.6) and not met


def test_judge_steady_skew_holds_a_skew_to_s():
    params = SimpleNamespace(S=1.0, tolerance=TOLERANCE)
    assert judge_steady_skew(1.0, params)
    assert not judge_steady_skew(1.5, params)


# ----------------------------------------------------------------------
# No builder judges
# ----------------------------------------------------------------------

CAMPAIGNS = (
    pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "campaigns"
)


def test_no_campaign_module_calls_within_or_at_least():
    calls = []
    for path in sorted(CAMPAIGNS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = getattr(function, "id", getattr(function, "attr", None))
            if name in ("within", "at_least"):
                calls.append(f"{path.name}:{node.lineno} {name}()")
    assert sorted(CAMPAIGNS.glob("*.py")) and calls == []
