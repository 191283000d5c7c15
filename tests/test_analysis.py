"""Tests for metrics, reporting, theory bounds, and the trial runner."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import theory
from repro.analysis.metrics import (
    PulseReport,
    check_liveness,
    common_pulse_count,
    max_period,
    max_skew,
    min_period,
    pulse_skew,
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
        assert pulse_skew(PULSES, 0) == pytest.approx(0.3)
        assert pulse_skew(PULSES, 1) == pytest.approx(0.3)
        assert pulse_skew(PULSES, 2) == pytest.approx(0.4)

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
        count = common_pulse_count(pulses)
        for i in range(count):
            assert pulse_skew(pulses, i) >= 0.0


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
