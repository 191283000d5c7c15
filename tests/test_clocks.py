"""Unit and property tests for hardware clocks."""

import random
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clocks import (
    ClockSegment,
    HardwareClock,
    rate_row,
    validate_initial_skew,
)
from repro.sim.errors import ClockError


class TestConstruction:
    def test_needs_at_least_one_segment(self):
        with pytest.raises(ClockError):
            HardwareClock([])

    def test_first_segment_starts_at_zero(self):
        with pytest.raises(ClockError):
            HardwareClock([ClockSegment(1.0, 0.0, 1.0)])

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ClockError):
            HardwareClock([ClockSegment(0.0, 0.0, 0.0)])

    def test_rejects_rate_above_theta(self):
        with pytest.raises(ClockError):
            HardwareClock([ClockSegment(0.0, 0.0, 1.2)], theta=1.1)

    def test_rejects_rate_below_one_with_theta(self):
        with pytest.raises(ClockError):
            HardwareClock([ClockSegment(0.0, 0.0, 0.9)], theta=1.1)

    def test_rejects_discontinuity(self):
        with pytest.raises(ClockError):
            HardwareClock(
                [
                    ClockSegment(0.0, 0.0, 1.0),
                    ClockSegment(1.0, 5.0, 1.0),
                ]
            )

    def test_rejects_unordered_segments(self):
        with pytest.raises(ClockError):
            HardwareClock(
                [
                    ClockSegment(0.0, 0.0, 1.0),
                    ClockSegment(0.0, 0.0, 1.0),
                ]
            )

    def test_rejects_negative_offset(self):
        with pytest.raises(ClockError):
            HardwareClock.constant_rate(1.0, offset=-1.0)


class TestEvaluation:
    def test_constant_rate(self):
        clock = HardwareClock.constant_rate(1.5, offset=2.0)
        assert clock.local_time(0.0) == pytest.approx(2.0)
        assert clock.local_time(4.0) == pytest.approx(8.0)

    def test_from_rates_piecewise(self):
        clock = HardwareClock.from_rates([(10.0, 1.1)], tail_rate=1.0)
        assert clock.local_time(10.0) == pytest.approx(11.0)
        assert clock.local_time(15.0) == pytest.approx(16.0)

    def test_negative_time_rejected(self):
        clock = HardwareClock.constant_rate()
        with pytest.raises(ClockError):
            clock.local_time(-1.0)

    def test_inverse_before_start_rejected(self):
        clock = HardwareClock.constant_rate(1.0, offset=5.0)
        with pytest.raises(ClockError):
            clock.real_time(1.0)

    def test_fast_then_shifted_shape(self):
        clock = HardwareClock.fast_then_shifted(1.1, shift=0.5)
        switch = 0.5 / 0.1
        assert clock.local_time(switch) == pytest.approx(1.1 * switch)
        assert clock.local_time(switch + 3.0) == pytest.approx(
            switch + 3.0 + 0.5
        )

    def test_fast_then_shifted_zero_shift_is_identity(self):
        clock = HardwareClock.fast_then_shifted(1.1, shift=0.0)
        assert clock.local_time(7.0) == pytest.approx(7.0)

    def test_fast_then_shifted_requires_drift(self):
        with pytest.raises(ClockError):
            HardwareClock.fast_then_shifted(1.0, shift=0.5)


class TestRandomDrift:
    def test_rates_within_bounds(self):
        clock = HardwareClock.random_drift(
            random.Random(0), theta=1.05, horizon=100.0, segment_length=5.0
        )
        segments = clock.segments()
        assert len(segments) > 1
        for segment in segments:
            assert 1.0 - 1e-9 <= segment.rate <= 1.05 + 1e-9

    def test_deterministic_given_seed(self):
        a = HardwareClock.random_drift(random.Random(42), 1.05)
        b = HardwareClock.random_drift(random.Random(42), 1.05)
        for t in (0.0, 10.0, 99.0, 500.0):
            assert a.local_time(t) == b.local_time(t)

    @pytest.mark.parametrize(
        "horizon,segment_length",
        [(200.0, 5.0), (1000.0, 10.0), (7.5, 2.0), (0.0, 1.0), (3.0, 7.0)],
    )
    def test_rows_are_the_uniform_draws_over_the_schedule(
        self, horizon, segment_length
    ):
        # The row random.uniform and a per-row schedule loop built, bit
        # for bit, from the same stream, clock after clock although the
        # schedule is computed once.
        drawn, reference = random.Random(5), random.Random(5)
        for offset in (0.0, 0.03):
            durations = []
            t = 0.0
            while t < horizon:
                durations.append(segment_length)
                t += segment_length
            rates = [reference.uniform(1.0, 1.001) for _ in durations]
            clock = HardwareClock.random_drift(
                drawn, 1.001, offset, horizon, segment_length
            )
            row = rate_row(durations, rates, 1.0, offset)
            assert clock.segments() == [
                ClockSegment(*piece) for piece in zip(*row)
            ]
        assert drawn.random() == reference.random()

    @pytest.mark.parametrize(
        "keywords,named",
        [
            ({"segment_length": 0.0}, "segment_length .* got 0.0"),
            ({"segment_length": -2.5}, "segment_length .* got -2.5"),
            ({"segment_length": float("nan")}, "segment_length .* got nan"),
            ({"segment_length": float("inf")}, "segment_length .* got inf"),
            ({"horizon": float("inf")}, "horizon .* got inf"),
            ({"horizon": float("nan")}, "horizon .* got nan"),
        ],
    )
    def test_a_schedule_that_never_ends_is_refused(self, keywords, named):
        # A non-positive step never reaches the horizon, and no step
        # reaches an infinite one: both used to append forever.
        def expire(signum, frame):
            raise AssertionError("random_drift did not return")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(3)
        try:
            with pytest.raises(ClockError, match=named):
                HardwareClock.random_drift(random.Random(0), 1.01, **keywords)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestHelpers:
    def test_validate_initial_skew_accepts(self):
        clocks = [
            HardwareClock.constant_rate(1.0, offset=0.0),
            HardwareClock.constant_rate(1.0, offset=0.2),
        ]
        validate_initial_skew(clocks, 0.25)

    def test_validate_initial_skew_rejects(self):
        clocks = [
            HardwareClock.constant_rate(1.0, offset=0.0),
            HardwareClock.constant_rate(1.0, offset=0.5),
        ]
        with pytest.raises(ClockError):
            validate_initial_skew(clocks, 0.25)


@st.composite
def clock_strategy(draw):
    theta = draw(st.floats(min_value=1.0001, max_value=1.1))
    offset = draw(st.floats(min_value=0.0, max_value=5.0))
    pieces = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=20.0),
                st.floats(min_value=1.0, max_value=theta),
            ),
            min_size=0,
            max_size=6,
        )
    )
    return HardwareClock.from_rates(
        pieces, tail_rate=1.0, offset=offset, theta=theta
    ), theta


class TestProperties:
    @given(clock_strategy(), st.floats(min_value=0.0, max_value=200.0),
           st.floats(min_value=0.0, max_value=50.0))
    def test_drift_bounds(self, clock_theta, t, delta):
        """The defining property: t' - t <= H(t') - H(t) <= theta (t'-t)."""
        clock, theta = clock_theta
        elapsed = clock.local_time(t + delta) - clock.local_time(t)
        assert elapsed >= delta - 1e-6
        assert elapsed <= theta * delta + 1e-6

    @given(clock_strategy(), st.floats(min_value=0.0, max_value=200.0))
    def test_inverse_roundtrip(self, clock_theta, t):
        clock, _theta = clock_theta
        assert clock.real_time(clock.local_time(t)) == pytest.approx(
            t, abs=1e-6
        )

    @given(clock_strategy(), st.floats(min_value=0.0, max_value=300.0))
    def test_local_roundtrip(self, clock_theta, local_delta):
        clock, _theta = clock_theta
        local = clock.offset_at_zero + local_delta
        assert clock.local_time(clock.real_time(local)) == pytest.approx(
            local, abs=1e-6
        )
