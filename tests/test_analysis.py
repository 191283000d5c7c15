"""Tests for metrics, reporting, theory bounds, and the trial runner."""

import os
from itertools import islice
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import theory
from repro.analysis.metrics import (
    PulseReport,
    check_liveness,
    common_pulse_count,
    max_period,
    max_skew,
    min_period,
    skew_trajectory,
)
from repro.analysis.reporting import Table, format_value
from repro.analysis.runner import run_pulse_trial
from repro.core.params import derive_parameters
from repro.sim.errors import ConfigurationError

PULSES = {
    0: [1.0, 3.0, 5.0],
    1: [1.2, 3.1, 5.4],
    2: [0.9, 3.3, 5.2],
}


class TestMetrics:
    def test_common_pulse_count(self):
        assert common_pulse_count(PULSES) == 3
        with pytest.raises(ConfigurationError):
            common_pulse_count({})

    def test_pulse_skew(self):
        # Pulse i's skew is the first entry of the trajectory from i.
        assert skew_trajectory(PULSES, 0)[0] == pytest.approx(0.3)
        assert skew_trajectory(PULSES, 1)[0] == pytest.approx(0.3)
        assert skew_trajectory(PULSES, 2)[0] == pytest.approx(0.4)

    def test_trajectory_and_max(self):
        assert skew_trajectory(PULSES) == pytest.approx([0.3, 0.3, 0.4])
        assert max_skew(PULSES) == pytest.approx(0.4)
        assert skew_trajectory(PULSES, skip=2) == pytest.approx([0.4])

    def test_max_skew_needs_data_after_skip(self):
        with pytest.raises(ConfigurationError):
            max_skew(PULSES, skip=5)

    def test_periods_match_definition3(self):
        # min over i of (min p_{i+1} - max p_i)
        assert min_period(PULSES) == pytest.approx(min(3.0 - 1.2, 5.0 - 3.3))
        assert max_period(PULSES) == pytest.approx(max(3.3 - 0.9, 5.4 - 3.0))

    def test_periods_need_two_pulses(self):
        with pytest.raises(ConfigurationError):
            min_period({0: [1.0]})

    def test_liveness(self):
        assert check_liveness(PULSES, 3)
        assert not check_liveness(PULSES, 4)
        assert not check_liveness({0: [2.0, 1.0]}, 2)

    def test_pulse_report(self):
        report = PulseReport.from_pulses(PULSES, warmup=1)
        assert report.nodes == 3
        assert report.pulses == 3
        assert report.max_skew == pytest.approx(0.4)
        assert report.steady_skew == pytest.approx(0.4)

    @given(
        st.dictionaries(
            st.integers(0, 5),
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=2,
                max_size=6,
            ).map(sorted),
            min_size=1,
            max_size=5,
        )
    )
    def test_skew_nonnegative_property(self, pulses):
        pulses = {
            k: [t + i * 1e-6 for i, t in enumerate(v)]
            for k, v in pulses.items()
        }
        trajectory = skew_trajectory(pulses)
        assert len(trajectory) == common_pulse_count(pulses)
        assert all(skew >= 0.0 for skew in trajectory)


# Pulse times from a small grid, so that trains often share a time with
# another node's or repeat their own.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 4.0]) | st.floats(
    min_value=0.0, max_value=50.0
)


def _column(pulses, i):
    return [times[i] for times in pulses.values()]


def _skews(pulses):
    """Definition 3's skew of each common pulse index, one by one."""
    count = min(len(times) for times in pulses.values())
    return [
        max(_column(pulses, i)) - min(_column(pulses, i))
        for i in range(count)
    ]


def _definition3(pulses, warmup):
    """``PulseReport``'s fields, each written as Definition 3 states it
    per pulse index."""
    skews = _skews(pulses)
    count = len(skews)
    warmup = min(warmup, max(count - 1, 0))
    return (
        len(pulses),
        count,
        max(skews),
        max(skews[warmup:]),
        min(
            min(_column(pulses, i + 1)) - max(_column(pulses, i))
            for i in range(count - 1)
        ),
        max(
            max(_column(pulses, i + 1)) - min(_column(pulses, i))
            for i in range(count - 1)
        ),
    )


def _fields(report):
    return (
        report.nodes, report.pulses, report.max_skew, report.steady_skew,
        report.min_period, report.max_period,
    )


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


@st.composite
def _ragged_trains(draw):
    """Pulse trains of ragged lengths, each in order but for at most
    one flaw: an equal neighbour, a swapped pair or a NaN."""
    pulses = {}
    for node in range(draw(st.integers(0, 5))):
        times = draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
        train = sorted(map(float, times))
        flaw = draw(st.sampled_from([None, "equal", "swap", "nan"]))
        if flaw and len(train) > 1:
            i = draw(st.integers(0, len(train) - 2))
            if flaw == "equal":
                train[i + 1] = train[i]
            elif flaw == "swap":
                train[i], train[i + 1] = train[i + 1], train[i]
            else:
                train[i] = float("nan")
        pulses[node] = train
    return pulses


def _liveness_by_node(pulses, expected):
    """``check_liveness`` as it was: every train, one at a time."""
    for times in pulses.values():
        if len(times) < expected:
            return False
        if any(map(ge, times, islice(times, 1, None))):
            return False
    return True


class TestOnePassReport:
    """``PulseReport.from_pulses`` reads each index's extremes once; its
    fields equal Definition 3's per-index statistics bit for bit, and
    it raises what the per-statistic functions raise."""

    @given(
        st.dictionaries(
            st.integers(0, 5),
            st.lists(TIMES, max_size=8).map(sorted),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 4),
    )
    def test_fields_equal_definition3(self, pulses, warmup):
        count = common_pulse_count(pulses)
        if count < 2:
            message = (
                "no pulses left after skipping 0" if count == 0
                else "need two pulses for a period"
            )
            with pytest.raises(ConfigurationError) as raised:
                PulseReport.from_pulses(pulses, warmup=warmup)
            assert str(raised.value) == message
            return
        report = PulseReport.from_pulses(pulses, warmup=warmup)
        assert _hex(_fields(report)) == _hex(_definition3(pulses, warmup))
        assert _hex(skew_trajectory(pulses, warmup)) == _hex(
            _skews(pulses)[warmup:]
        )

    @pytest.mark.parametrize(
        "pulses, message",
        [
            ({}, "no pulse data"),
            ({0: [1.0, 2.0], 1: []}, "no pulses left after skipping 0"),
            ({0: [1.0], 1: [1.0, 2.0]}, "need two pulses for a period"),
        ],
    )
    def test_refusals(self, pulses, message):
        with pytest.raises(ConfigurationError) as raised:
            PulseReport.from_pulses(pulses)
        assert str(raised.value) == message

    def test_liveness_on_equal_neighbours_and_nan(self):
        # A repeated time is not a later pulse; NaN compares false
        # either way, so a train holding one is not refused for it.
        assert not check_liveness({0: [0.5, 1.5, 3.0], 1: [1.0, 1.0, 2.0]}, 3)
        nan = float("nan")
        assert check_liveness({0: [1.0, nan, 2.0], 1: [0.5, 1.5, 2.5]}, 3)
        assert check_liveness({0: [nan, nan]}, 2)
        assert not check_liveness({0: [nan, 1.0, 1.0]}, 3)

    @settings(max_examples=100)  # a call costs microseconds
    @given(_ragged_trains(), st.integers(-1, 4))
    def test_liveness_is_the_per_node_loop(self, pulses, expected):
        # The column pairs of the common prefix and the longer trains'
        # tails answer what checking node by node did.
        assert check_liveness(pulses, expected) == _liveness_by_node(
            pulses, expected
        )


class TestReporting:
    def test_table_rendering(self):
        table = Table("Title", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", True)
        table.add_note("a note")
        rendered = table.render()
        assert "Title" in rendered
        assert "2.5" in rendered
        assert "yes" in rendered
        assert "note: a note" in rendered

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_csv_roundtrip(self, tmp_path):
        table = Table("T", ["a", "b"])
        table.add_row(1, 2.5)
        path = os.path.join(tmp_path, "out.csv")
        table.to_csv(path)
        with open(path) as handle:
            content = handle.read()
        assert "a,b" in content
        assert "2.5" in content

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(float("nan")) == "nan"
        assert "e" in format_value(1.23e-7)
        assert format_value("text") == "text"


class TestTheory:
    def setup_method(self):
        self.params = derive_parameters(1.001, 1.0, 0.01, 8)

    def test_apa_halving_bound(self):
        assert theory.apa_halving_bound(8.0, 3) == 1.0

    def test_lower_bound(self):
        assert theory.lower_bound_skew(0.9) == pytest.approx(0.6)

    def test_summary_keys(self):
        summary = theory.summary(self.params)
        assert "S (skew bound)" in summary
        assert all(isinstance(v, float) for v in summary.values())


class TestRunner:
    def test_captures_protocol_errors(self):
        from repro.core.cps import assemble_cps_simulation
        from repro.sim.adversary import SilentAdversary

        params = derive_parameters(1.001, 1.0, 0.02, 6)
        simulation = assemble_cps_simulation(
            params,
            faulty=[3, 4],
            behavior=SilentAdversary(),
            discard_rule="f",
        )
        outcome = run_pulse_trial(simulation, 3)
        assert not outcome.live
        assert outcome.error is not None
        assert outcome.report is None

    def test_successful_trial(self):
        from repro.core.cps import assemble_cps_simulation

        params = derive_parameters(1.001, 1.0, 0.02, 6)
        outcome = run_pulse_trial(assemble_cps_simulation(params), 5)
        assert outcome.live
        assert outcome.report is not None
        assert outcome.report.pulses == 5
