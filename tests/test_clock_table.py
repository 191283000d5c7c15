"""Clock ensembles as segment tables: the table is the old clocks.

Four things are pinned here, each against the per-object code the
table replaced or against the other layout:

* the rows every drift profile builds equal, float for float, the
  segments of the ``HardwareClock`` objects the profiles built one at a
  time before (``tests/data/drift_rows.json``, dumped at the parent
  commit by ``scripts/clock_parity.py``);
* the vectorized engine's batched evaluators return **bit-equal**
  floats to ``HardwareClock.local_time`` / ``real_time`` — on segment
  starts, one ulp either side, at 0, inside ``EPS`` below ``H(0)`` and
  beyond the last segment — and raise the same ``ClockError``;
* the two layouts of one ensemble — ``ensemble[v]`` (the event
  engine's) and ``ClockTable`` (the vectorized engine's) — are equal by
  ``float.hex`` and raise the same ``ClockError`` for a violation
  planted in a row or a draw;
* whole vectorized runs (pulse streams, ``events_processed``,
  ``end_time``) are bit-identical to the parent's
  (``tests/data/vectorized_runs.json``), and so are the 48 unobserved
  runs of ``clock_parity.py --full``; its n = 30 runs also replay under
  a full trace, whose dense blocks are the other source of each
  receiver's window extremes.
"""

import importlib.util
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import RELATIVE_TOLERANCE as EPS
from repro.sim.clocks import (
    ClockEnsemble,
    ClockSegment,
    Draws,
    HardwareClock,
    rate_row,
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


FULL_CAPTURE = os.path.join(ROOT, "tests", "data", "clock_parity_full.txt")


def _full_capture(n):
    """The ``n{n}/...`` lines of ``tests/data/clock_parity_full.txt``."""
    with open(FULL_CAPTURE) as handle:
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
        for v, clock in enumerate(ensemble):
            assert clock.theta == params.theta
            assert clock.segments() == [
                ClockSegment(*piece) for piece in zip(*ensemble.row(v))
            ]
        assert ClockEnsemble.of(ensemble) is ensemble
        tabulated = ClockEnsemble.of(list(ensemble))
        assert [tabulated.row(v) for v in range(7)] == [
            ensemble.row(v) for v in range(7)
        ]


#: ``(segments, theta, message)``: the parent's messages, then the
#: non-finite rows it admitted.
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
    # Non-finite values, which every other condition lets through.
    (
        [(0.0, 0.0, 1.0), (math.nan, math.nan, 1.0)], 1.001,
        "clock values must be finite: "
        "ClockSegment(t_start=nan, local_start=nan, rate=1.0)",
    ),
    (
        [(0.0, math.nan, 1.0)], None,
        "clock values must be finite: "
        "ClockSegment(t_start=0.0, local_start=nan, rate=1.0)",
    ),
    (
        [(0.0, 0.0, math.inf)], None,
        "clock values must be finite: "
        "ClockSegment(t_start=0.0, local_start=0.0, rate=inf)",
    ),
]


def _row(segments):
    """The segment row of ``(t_start, local_start, rate)`` tuples."""
    return tuple(list(column) for column in zip(*segments)) or ([], [], [])


class TestSameErrors:
    @pytest.mark.parametrize(
        "segments,theta,message", BAD_CLOCKS, ids=lambda v: str(v)[:40]
    )
    def test_clock_and_ensemble_reject_alike(
        self, segments, theta, message
    ):
        with pytest.raises(ClockError) as from_clock:
            HardwareClock([ClockSegment(*s) for s in segments], theta)
        row = _row(segments)
        good = ([0.0], [0.0], [1.0])
        with pytest.raises(ClockError) as from_ensemble:
            ClockEnsemble([good, row], theta)[1]
        with pytest.raises(ClockError) as from_table:
            ClockTable(ClockEnsemble([good, row], theta))
        assert str(from_clock.value) == message
        assert str(from_ensemble.value) == str(from_table.value) == message

    def test_piece_duration_message(self):
        with pytest.raises(
            ClockError, match="piece duration must be positive: 0.0"
        ):
            HardwareClock.from_rates([(0.0, 1.0)])


def _hex(values):
    return [float(value).hex() for value in values]


def _raised(build):
    """The text of the :class:`ClockError` ``build()`` raises."""
    with pytest.raises(ClockError) as raised:
        build()
    return str(raised.value)


class TestLayoutsAgree:
    """The two layouts of one ensemble: ``ensemble[v]`` (the event
    engine's, numpy-free) and the vectorized engine's ``ClockTable``."""

    @given(
        st.sampled_from(PARITY.PROFILES),
        st.integers(min_value=4, max_value=40),
        st.floats(min_value=1.0001, max_value=1.05),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_table_columns_are_the_indexed_rows(
        self, profile, n, theta, seed
    ):
        params = PARITY.derive_parameters(theta=theta, d=1.0, u=0.01, n=n)
        ensemble = PARITY.scenarios.create("drift", profile, params, seed)
        table = ClockTable(ensemble)
        columns = (table.starts, table.locals, table.rates)
        for v, clock in enumerate(ensemble):
            segments = [
                (s.t_start, s.local_start, s.rate) for s in clock.segments()
            ]
            k = len(segments)  # mixed rows are ragged: 1 or K segments
            for column, values in zip(columns, zip(*segments)):
                assert _hex(column[v, :k]) == _hex(values)
                assert np.isposinf(column[v, k:]).all()
        nodes = list(range(n - 1, -1, -2))
        subset = ClockTable(ensemble, nodes)
        assert subset.width == max(len(ensemble.row(v)[0]) for v in nodes)
        for got, whole in zip(
            (subset.starts, subset.locals, subset.rates), columns
        ):
            assert got.tolist() == whole[nodes, :subset.width].tolist()

    @settings(max_examples=40)
    @given(st.data())
    def test_ragged_given_rows_scatter_to_their_nodes(self, data):
        # Segment rows of 1-5 segments between wandering clocks: each
        # given row lands at its own node, padded with +inf.
        base = self._base()
        speed = st.floats(min_value=1.0, max_value=base.theta)
        entries = []
        for segments in data.draw(
            st.lists(st.none() | st.integers(1, 5), min_size=1, max_size=12)
        ):
            if segments is None:
                entries.append(None)
                continue
            steps = data.draw(st.lists(
                st.tuples(st.floats(min_value=0.5, max_value=50.0), speed),
                min_size=segments - 1,
                max_size=segments - 1,
            ))
            entries.append(rate_row(
                [duration for duration, _ in steps],
                [rate for _, rate in steps],
                data.draw(speed),
                data.draw(st.floats(min_value=0.0, max_value=1.0)),
            ))
        ensemble = ClockEnsemble(entries, base.theta, base.draws)
        nodes = data.draw(st.permutations(range(len(entries))))
        nodes = nodes[:data.draw(st.integers(1, len(entries)))]
        for table, order in (
            (ClockTable(ensemble), range(len(entries))),
            (ClockTable(ensemble, nodes), nodes),
        ):
            columns = (table.starts, table.locals, table.rates)
            for i, v in enumerate(order):
                row = ensemble.row(v)
                k = len(row[0])
                for column, values in zip(columns, row):
                    assert _hex(column[i, :k]) == _hex(values)
                    assert np.isposinf(column[i, k:]).all()

    N = 500
    #: ``(position in a wandering clock's block, value)``: H(0)'s draw,
    #: then rate draws.  Each breaks one condition of ``check_row``.
    BAD_DRAWS = [
        (0, -1.0),  # H(0) = -S
        (0, math.nan),
        (3, 2.0),  # rate 1 + 2 (theta - 1) > theta
        (3, -1.0),  # rate 1 - (theta - 1) < 1
        (5, math.inf),
    ]

    def _base(self):
        params = PARITY.derive_parameters(
            theta=1.001, d=1.0, u=0.01, n=self.N
        )
        return PARITY.scenarios.create("drift", "random", params, 0)

    @pytest.mark.parametrize(
        "segments", [bad for bad, _, _ in BAD_CLOCKS],
        ids=lambda v: str(v)[:40],
    )
    @settings(max_examples=5)
    @given(st.integers(min_value=0, max_value=N - 1))
    def test_a_planted_row_is_named_alike(self, segments, node):
        base = self._base()
        row = _row(segments)

        def planted():
            entries = [None] * self.N
            entries[node] = row
            return ClockEnsemble(entries, base.theta, base.draws)

        event = _raised(lambda: list(planted()))
        assert _raised(lambda: ClockTable(planted())) == event
        assert _raised(lambda: planted()[node]) == event

    @pytest.mark.parametrize("position,value", BAD_DRAWS)
    @settings(max_examples=5)
    @given(st.integers(min_value=0, max_value=N - 1))
    def test_a_planted_draw_is_named_alike(self, position, value, node):
        base = self._base()
        schedule, scale, stream = base.draws
        stream = list(stream)
        stream[node * (len(stream) // self.N) + position] = value

        def planted():
            draws = Draws(schedule, scale, stream)
            return ClockEnsemble([None] * self.N, base.theta, draws)

        event = _raised(lambda: list(planted()))
        assert _raised(lambda: ClockTable(planted())) == event
        assert _raised(lambda: planted()[node]) == event


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
        table = ClockTable(ClockEnsemble.of(clocks))
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
        table = ClockTable(ClockEnsemble.of(clocks))
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
        table = ClockTable(ClockEnsemble.of(clocks))
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
        rows = dict(PARITY.TIER1_SIZES)[int(n[1:])]
        assert PARITY.run_entry(
            int(n[1:]), delay, drift, rows
        ) == VECTORIZED_RUNS[key]

    def test_unobserved_runs_print_the_full_capture(self, capsys):
        # All 48 lines of ``clock_parity.py --full``, byte for byte.
        assert PARITY.main(["--full"]) == 0
        with open(FULL_CAPTURE, encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()

    @pytest.mark.parametrize("key", sorted(FULL_CAPTURE_N30))
    def test_dense_blocks_replay_the_full_capture(self, key):
        # The test above reads the unobserved runs; observed, the same
        # runs take the dense block for every round.
        _, delay, drift = key.split("/")
        assert len(FULL_CAPTURE_N30) == 16
        assert PARITY.run_entry(
            30, delay, drift, None, trace="full"
        ) == FULL_CAPTURE_N30[key]
