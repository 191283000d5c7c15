"""Tests for Algorithm APA: the midpoint rule and iterated agreement.

The hypothesis properties operationalize Lemmas 7/8 and Theorem 9: for
*any* placement of up to ``f`` Byzantine values (with any split between
⊥ and in-band values), the midpoint rule's output stays within the honest
range, and two nodes' outputs under crusader-consistent receptions are at
most half the honest range apart.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import max_faults
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sync.approx_agreement import (
    ApaEquivocatingAdversary,
    ApaExtremeAdversary,
    ApaSplitAdversary,
    iterations_for_target,
    midpoint_rule,
    run_apa,
)


class TestMidpointRule:
    def test_no_faults_midpoint_of_range(self):
        value, interval = midpoint_rule([1.0, 2.0, 4.0], 0, 0)
        assert value == 2.5
        assert interval == (1.0, 4.0)

    def test_discards_extremes(self):
        value, interval = midpoint_rule([-100.0, 1.0, 2.0, 3.0, 100.0], 0, 1)
        assert interval == (1.0, 3.0)
        assert value == 2.0

    def test_discards_two_per_side(self):
        value, interval = midpoint_rule([-100.0, 1.0, 2.0, 3.0, 100.0], 0, 2)
        assert interval == (2.0, 2.0)
        assert value == 2.0

    def test_bot_values_reduce_discard(self):
        # f=2 but one ⊥ observed -> discard only 1 per side.
        value, interval = midpoint_rule([-100.0, 1.0, 3.0, 100.0], 1, 2)
        assert interval == (1.0, 3.0)

    def test_more_bots_than_f_discards_nothing(self):
        value, interval = midpoint_rule([1.0, 5.0], 3, 2)
        assert interval == (1.0, 5.0)

    def test_under_determined_raises(self):
        with pytest.raises(SimulationError):
            midpoint_rule([1.0, 2.0], 0, 1)

    def test_negative_bot_count_rejected(self):
        with pytest.raises(ConfigurationError):
            midpoint_rule([1.0], -1, 0)

    @given(
        honest=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=9
        ),
        byzantine=st.lists(
            st.floats(min_value=-1e9, max_value=1e9), min_size=0, max_size=4
        ),
        extra_bots=st.integers(min_value=0, max_value=4),
    )
    def test_validity_property(self, honest, byzantine, extra_bots):
        """Lemma-8 style validity: with f = len(byzantine) + extra_bots
        faults total (the ⊥s prove extra_bots of them), the midpoint stays
        within the honest range — whenever the rule is determined."""
        f = len(byzantine) + extra_bots
        values = honest + byzantine
        if len(values) <= 2 * max(f - extra_bots, 0):
            return  # outside the model (n <= 2f)
        value, _ = midpoint_rule(values, extra_bots, f)
        assert min(honest) - 1e-9 <= value <= max(honest) + 1e-9


class TestIterationsForTarget:
    def test_exact_powers(self):
        assert iterations_for_target(64.0, 1.0) == 6

    def test_already_converged(self):
        assert iterations_for_target(0.5, 1.0) == 0

    def test_invalid_target(self):
        with pytest.raises(ConfigurationError):
            iterations_for_target(1.0, 0.0)


def spread(outputs):
    values = list(outputs.values())
    return max(values) - min(values)


class TestApaProtocol:
    def test_halving_no_faults(self):
        n = 5
        inputs = {v: float(v) for v in range(n)}
        result = run_apa(inputs, n, f=0, iterations=3)
        ranges = result.ranges()
        for before, after in zip(ranges, ranges[1:]):
            assert after <= before / 2 + 1e-9

    @pytest.mark.parametrize(
        "adversary_cls",
        [ApaExtremeAdversary, ApaSplitAdversary, ApaEquivocatingAdversary],
    )
    @pytest.mark.parametrize("n", [5, 9])
    def test_halving_under_attack_at_max_resilience(self, adversary_cls, n):
        f = max_faults(n)
        faulty = list(range(n - f, n))
        honest = [v for v in range(n) if v not in faulty]
        inputs = {v: 10.0 * i for i, v in enumerate(honest)}
        result = run_apa(
            inputs, n, f, faulty, adversary_cls(-1e4, 1e4), iterations=4
        )
        ranges = result.ranges()
        for before, after in zip(ranges, ranges[1:]):
            assert after <= before / 2 + 1e-9

    @pytest.mark.parametrize(
        "adversary_cls",
        [ApaExtremeAdversary, ApaSplitAdversary, ApaEquivocatingAdversary],
    )
    def test_validity_under_attack(self, adversary_cls):
        n, f = 7, max_faults(7)
        faulty = list(range(n - f, n))
        honest = [v for v in range(n) if v not in faulty]
        inputs = {v: float(i) for i, v in enumerate(honest)}
        result = run_apa(
            inputs, n, f, faulty, adversary_cls(-1e4, 1e4), iterations=2
        )
        low = min(inputs.values())
        high = max(inputs.values())
        for output in result.outputs.values():
            assert low - 1e-9 <= output <= high + 1e-9

    def test_corollary2_round_count_reaches_target(self):
        n = 9
        f = max_faults(n)
        faulty = list(range(n - f, n))
        honest = [v for v in range(n) if v not in faulty]
        initial_range, target = 100.0, 0.5
        iterations = iterations_for_target(initial_range, target)
        inputs = {
            v: initial_range * i / (len(honest) - 1)
            for i, v in enumerate(honest)
        }
        result = run_apa(
            inputs,
            n,
            f,
            faulty,
            ApaExtremeAdversary(-1e5, 1e5),
            iterations=iterations,
        )
        assert spread(result.outputs) <= target + 1e-9

    def test_agreed_inputs_stay_agreed(self):
        n = 5
        inputs = {v: 7.0 for v in range(n)}
        result = run_apa(inputs, n, f=0, iterations=2)
        assert all(output == pytest.approx(7.0) for output in
                   result.outputs.values())

    def test_history_records_bots_for_split_adversary(self):
        n, f = 6, max_faults(6)
        faulty = list(range(n - f, n))
        honest = [v for v in range(n) if v not in faulty]
        inputs = {v: float(v) for v in honest}
        result = run_apa(
            inputs, n, f, faulty, ApaSplitAdversary(-10.0, 10.0),
            iterations=1,
        )
        assert any(
            record.num_bot > 0
            for node in result.nodes.values()
            for record in node.history
        )

    def test_requires_at_least_one_iteration(self):
        from repro.sync.approx_agreement import ApaNode

        with pytest.raises(ConfigurationError):
            ApaNode(0.0, 0)

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(4, 9), data=st.data())
    def test_property_halving_with_random_inputs(self, n, data):
        """Theorem 9 as a property over random inputs and extreme attacks."""
        f = max_faults(n)
        faulty = list(range(n - f, n))
        honest = [v for v in range(n) if v not in faulty]
        inputs = {
            v: data.draw(st.floats(min_value=-100.0, max_value=100.0))
            for v in honest
        }
        result = run_apa(
            inputs,
            n,
            f,
            faulty,
            ApaExtremeAdversary(-1e5, 1e5),
            iterations=2,
        )
        ranges = result.ranges()
        assert ranges[1] <= ranges[0] / 2 + 1e-9
        assert ranges[2] <= ranges[1] / 2 + 1e-9
