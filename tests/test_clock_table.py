"""Clock ensembles as segment tables: the table is the old clocks.

Three things are pinned here, each against the per-object code the
table replaced:

* the rows every drift profile builds equal, float for float, the
  segments of the ``HardwareClock`` objects the profiles built one at a
  time before (``tests/data/drift_rows.json``, dumped at the parent
  commit by ``scripts/clock_parity.py``);
* the vectorized engine's batched evaluators return **bit-equal**
  floats to ``HardwareClock.local_time`` / ``real_time`` — on segment
  starts, one ulp either side, at 0, inside ``EPS`` below ``H(0)`` and
  beyond the last segment — and raise the same ``ClockError``;
* whole vectorized runs (pulse streams, ``events_processed``,
  ``end_time``) are bit-identical to the parent's
  (``tests/data/vectorized_runs.json``), and the n = 30 runs of CI's
  ``clock_parity.py --full`` capture replay under a full trace, whose
  dense blocks are the other source of each receiver's window extremes.
"""

import importlib.util
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clocks import (
    EPS,
    ClockEnsemble,
    ClockSegment,
    HardwareClock,
)
from repro.sim.errors import ClockError
from repro.sim.vectorized.engine import ClockTable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    with open(os.path.join(ROOT, "tests", "data", name)) as handle:
        return json.load(handle)


def _parity_script():
    spec = importlib.util.spec_from_file_location(
        "clock_parity", os.path.join(ROOT, "scripts", "clock_parity.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _full_capture(n):
    """The ``n{n}/...`` lines of ``tests/data/clock_parity_full.txt``."""
    path = os.path.join(ROOT, "tests", "data", "clock_parity_full.txt")
    with open(path) as handle:
        entries = dict(line.split(" ", 1) for line in handle)
    return {
        key: json.loads(entry)
        for key, entry in entries.items()
        if key.startswith(f"n{n}/")
    }


PARITY = _parity_script()
DRIFT_ROWS = _load("drift_rows.json")
VECTORIZED_RUNS = _load("vectorized_runs.json")
FULL_CAPTURE_N30 = _full_capture(30)


class TestRowsAreTheOldClocks:
    @pytest.mark.parametrize("key", sorted(DRIFT_ROWS))
    def test_profile_rows_match_the_parent(self, key):
        profile, n, seed = key.split("/")
        entry = PARITY.drift_entry(profile, int(n[1:]), int(seed[4:]))
        assert entry == DRIFT_ROWS[key]

    def test_views_read_the_table(self):
        params = PARITY.derive_parameters(theta=1.001, d=1.0, u=0.01, n=7)
        ensemble = PARITY.scenarios.create("drift", "mixed", params, 2)
        assert isinstance(ensemble, ClockEnsemble)
        for row, clock in zip(ensemble.rows, ensemble):
            assert clock.theta == params.theta
            assert clock.segments() == [
                ClockSegment(*piece) for piece in zip(*row)
            ]
        assert ClockEnsemble.of(ensemble) is ensemble
        assert ClockEnsemble.of(list(ensemble)).rows == ensemble.rows


#: ``(segments, theta, the parent's message)``.
BAD_CLOCKS = [
    ([], None, "a clock needs at least one segment"),
    (
        [(1.0, 0.0, 1.0)], None,
        "first segment must start at t=0, got 1.0",
    ),
    (
        [(0.0, 0.0, 0.0)], None,
        "clock rate must be positive: "
        "ClockSegment(t_start=0.0, local_start=0.0, rate=0.0)",
    ),
    (
        [(0.0, 0.0, 1.0), (1.0, 1.0, -2.0)], None,
        "clock rate must be positive: "
        "ClockSegment(t_start=1.0, local_start=1.0, rate=-2.0)",
    ),
    (
        [(0.0, 0.0, 1.2)], 1.1,
        "rate 1.2 outside [1, 1.1]: "
        "ClockSegment(t_start=0.0, local_start=0.0, rate=1.2)",
    ),
    (
        [(0.0, 0.0, 0.9)], 1.1,
        "rate 0.9 outside [1, 1.1]: "
        "ClockSegment(t_start=0.0, local_start=0.0, rate=0.9)",
    ),
    (
        [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)], None,
        "segments must have increasing t_start",
    ),
    (
        [(0.0, 0.0, 1.0), (1.0, 5.0, 1.0)], None,
        "discontinuous clock: expected local 1.0, got 5.0",
    ),
    ([(0.0, -1.0, 1.0)], None, "clock must be non-negative at t=0"),
]


class TestSameErrors:
    @pytest.mark.parametrize(
        "segments,theta,message", BAD_CLOCKS, ids=lambda v: str(v)[:40]
    )
    def test_clock_and_ensemble_reject_alike(
        self, segments, theta, message
    ):
        with pytest.raises(ClockError) as from_clock:
            HardwareClock([ClockSegment(*s) for s in segments], theta)
        row = tuple(list(column) for column in zip(*segments)) or (
            [], [], [],
        )
        good = ([0.0], [0.0], [1.0])
        with pytest.raises(ClockError) as from_table:
            ClockEnsemble([good, row], theta)
        assert str(from_clock.value) == str(from_table.value) == message

    def test_piece_duration_message(self):
        with pytest.raises(
            ClockError, match="piece duration must be positive: 0.0"
        ):
            HardwareClock.from_rates([(0.0, 1.0)])


@st.composite
def ragged_clocks(draw):
    """1–5 clocks of 1–6 segments each, ``fast_then_shifted`` included."""
    theta = draw(st.floats(min_value=1.0001, max_value=1.1))
    pieces = st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=20.0),
            st.floats(min_value=1.0, max_value=theta),
        ),
        max_size=5,
    )
    offsets = st.floats(min_value=0.0, max_value=5.0)
    clock = st.one_of(
        st.builds(
            lambda p, offset: HardwareClock.from_rates(
                p, offset=offset, theta=theta
            ),
            pieces, offsets,
        ),
        st.builds(
            lambda shift, offset: HardwareClock.fast_then_shifted(
                theta, shift, offset
            ),
            st.floats(min_value=0.0, max_value=0.5), offsets,
        ),
    )
    return draw(st.lists(clock, min_size=1, max_size=5))


def _around(values):
    """Each value, one ulp either side, and a point past the last."""
    points = {0.0, max(values) + 3.0}
    for value in values:
        points.update(
            (value, math.nextafter(value, -math.inf),
             math.nextafter(value, math.inf))
        )
    return points


class TestBatchedEvaluators:
    @given(
        ragged_clocks(),
        st.lists(st.floats(min_value=0.0, max_value=150.0), max_size=4),
    )
    def test_local_times_bit_equal(self, clocks, extra):
        table = ClockTable(ClockEnsemble.of(clocks).rows)
        starts = [s.t_start for c in clocks for s in c.segments()]
        points = sorted(t for t in _around(starts) | set(extra) if t >= 0)
        queries = np.array([points] * len(clocks))
        expected = [[c.local_time(t) for t in points] for c in clocks]
        everything = slice(0, len(clocks))
        # One call over the whole span (the index walks every segment) …
        assert table.local_times(everything, queries).tolist() == expected
        # … and narrow windows, the shape one block's arrivals have.
        for j in range(0, len(points), 2):
            got = table.local_times(everything, queries[:, j:j + 2])
            assert got.tolist() == [row[j:j + 2] for row in expected]
        last = slice(len(clocks) - 1, len(clocks))
        assert table.local_times(last, queries[last]).tolist() == (
            expected[-1:]
        )

    @given(
        ragged_clocks(),
        st.lists(st.floats(min_value=0.0, max_value=150.0), max_size=4),
    )
    def test_real_times_bit_equal(self, clocks, extra):
        table = ClockTable(ClockEnsemble.of(clocks).rows)
        columns = []
        for clock in clocks:
            local_starts = [s.local_start for s in clock.segments()]
            origin = clock.offset_at_zero
            points = _around(local_starts) | {
                origin - EPS / 2.0, *(origin + x for x in extra)
            }
            columns.append(sorted(p for p in points if p >= origin - EPS))
        depth = max(len(column) for column in columns)
        for j in range(depth):
            local = [column[min(j, len(column) - 1)] for column in columns]
            assert table.real_times(np.array(local)).tolist() == [
                clock.real_time(x) for clock, x in zip(clocks, local)
            ]

    def test_real_times_before_clock_start(self):
        clocks = [
            HardwareClock.constant_rate(1.0, offset=0.0),
            HardwareClock.from_rates([(5.0, 1.01)], offset=2.0),
        ]
        table = ClockTable(ClockEnsemble.of(clocks).rows)
        with pytest.raises(ClockError) as scalar:
            clocks[1].real_time(1.0)
        with pytest.raises(ClockError) as batch:
            table.real_times(np.array([4.0, 1.0]))
        assert str(batch.value) == str(scalar.value)
        assert str(scalar.value) == (
            "local time 1.0 precedes clock start 2.0"
        )


class TestRunsMatchTheParent:
    @pytest.mark.parametrize("key", sorted(VECTORIZED_RUNS))
    def test_pulses_events_end_time(self, key):
        n, delay, drift = key.split("/")
        block_size = dict(PARITY.TIER1_SIZES)[int(n[1:])]
        assert PARITY.run_entry(
            int(n[1:]), delay, drift, block_size
        ) == VECTORIZED_RUNS[key]

    @pytest.mark.parametrize("key", sorted(FULL_CAPTURE_N30))
    def test_dense_blocks_replay_the_full_capture(self, key):
        # CI diffs the unobserved runs against this file; observed, the
        # same runs take the dense block for every round.
        _, delay, drift = key.split("/")
        assert len(FULL_CAPTURE_N30) == 16
        assert PARITY.run_entry(
            30, delay, drift, None, trace="full"
        ) == FULL_CAPTURE_N30[key]
