"""Hardware clock models.

The paper models node ``v``'s hardware clock as a function
``H_v : R>=0 -> R>=0`` with rates between 1 and ``theta``:

    t' - t <= H_v(t') - H_v(t) <= theta * (t' - t)    for all t' >= t.

We realize clocks as strictly increasing piecewise-linear functions.  That
family is closed under the operations the algorithms need (evaluation and
inversion, both O(log segments)), is dense in the set of admissible clock
functions, and contains the adversarial clocks used by the paper's lower
bound (rate ``theta`` up to some time, rate 1 afterwards).

All factories validate rates against a supplied ``theta`` so model
violations are caught at construction time rather than mid-simulation.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import abc
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat, starmap
from operator import mul
from typing import (
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.params import RELATIVE_TOLERANCE
from repro.sim.errors import ClockError


@dataclass(frozen=True)
class ClockSegment:
    """One linear piece of a hardware clock.

    ``local(t) = local_start + rate * (t - t_start)`` for ``t`` in
    ``[t_start, next segment's t_start)``; the final segment extends to
    infinity.
    """

    t_start: float
    local_start: float
    rate: float


#: One clock as three parallel columns: every segment's ``t_start``,
#: ``local_start`` and ``rate``; a :class:`ClockSegment` is one column
#: slice.
Row = Tuple[List[float], List[float], List[float]]


def _row_of(segments: Sequence[ClockSegment]) -> Row:
    return (
        [segment.t_start for segment in segments],
        [segment.local_start for segment in segments],
        [segment.rate for segment in segments],
    )


def check_row(
    row: Row,
    theta: Optional[float] = None,
    tolerance: float = RELATIVE_TOLERANCE,
) -> Row:
    """``row``, or :class:`ClockError` unless it is an admissible clock:
    finite values, first start at 0, positive rates (in ``[1, theta]``
    when ``theta`` is given), strictly increasing starts, continuous,
    ``H(0) >= 0`` — times to within ``tolerance``, rates to within
    :data:`~repro.core.params.RELATIVE_TOLERANCE`."""
    starts, local_starts, rates = row
    if not starts:
        raise ClockError("a clock needs at least one segment")
    if not all(map(math.isfinite, chain(starts, local_starts, rates))):
        segment = next(
            piece
            for piece in zip(starts, local_starts, rates)
            if not all(map(math.isfinite, piece))
        )
        raise ClockError(
            f"clock values must be finite: {ClockSegment(*segment)}"
        )
    if abs(starts[0]) > tolerance:
        raise ClockError(
            f"first segment must start at t=0, got {starts[0]}"
        )
    for index, rate in enumerate(rates):
        if rate <= 0:
            raise ClockError(
                "clock rate must be positive: "
                f"{ClockSegment(starts[index], local_starts[index], rate)}"
            )
        if theta is not None and not (
            1.0 - RELATIVE_TOLERANCE <= rate <= theta + RELATIVE_TOLERANCE
        ):
            raise ClockError(
                f"rate {rate} outside [1, {theta}]: "
                f"{ClockSegment(starts[index], local_starts[index], rate)}"
            )
        if index:
            elapsed = starts[index] - starts[index - 1]
            if elapsed <= 0:
                raise ClockError("segments must have increasing t_start")
            expected = local_starts[index - 1] + rates[index - 1] * elapsed
            if abs(expected - local_starts[index]) > tolerance:
                raise ClockError(
                    "discontinuous clock: expected local "
                    f"{expected}, got {local_starts[index]}"
                )
    if local_starts[0] < -tolerance:
        raise ClockError("clock must be non-negative at t=0")
    return row


def constant_row(rate: float = 1.0, offset: float = 0.0) -> Row:
    """The one-segment row ``H(t) = offset + rate * t``."""
    return [0.0], [offset], [rate]


def rate_row(
    durations: Sequence[float],
    rates: Sequence[float],
    tail_rate: float = 1.0,
    offset: float = 0.0,
) -> Row:
    """The row running at ``rates[i]`` for ``durations[i]``, then at
    ``tail_rate``: running sums taken left to right (``t += duration``,
    ``local += rate * duration``), which every seeded artifact pins."""
    return (
        list(accumulate(durations, initial=0.0)),
        list(accumulate(map(mul, rates, durations), initial=offset)),
        [*rates, tail_rate],
    )


#: ``(horizon, segment_length)``: a wandering clock re-draws its rate
#: every ``segment_length`` over ``[0, horizon]`` and runs at rate 1
#: afterwards.
Schedule = Tuple[float, float]


@functools.lru_cache(maxsize=32)
def drift_schedule(
    horizon: float, segment_length: float
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """``(durations, starts)`` of a wandering clock: one
    ``segment_length`` piece per step until ``horizon`` is reached,
    and the running sums :func:`rate_row` takes of them."""
    if not (math.isfinite(segment_length) and segment_length > 0):
        raise ClockError(
            "segment_length must be positive and finite, got "
            f"{segment_length}"
        )
    if not math.isfinite(horizon):
        raise ClockError(f"horizon must be finite, got {horizon}")
    durations: List[float] = []
    t = 0.0
    while t < horizon:
        durations.append(segment_length)
        t += segment_length
    return tuple(durations), tuple(accumulate(durations, initial=0.0))


def drift_row(
    offset: float, draws: Iterable[float], theta: float, schedule: Schedule
) -> Row:
    """The segment row of a wandering clock: ``H(0) = offset``, then
    rate ``1 + (theta - 1) * draw`` for each step of ``schedule`` (which
    is ``rng.uniform(1, theta)`` bit for bit) and 1 after it; the locals
    are :func:`rate_row`'s running sums."""
    durations, starts = drift_schedule(*schedule)
    spread = theta - 1.0
    rates = [1.0 + spread * draw for draw in draws]
    return (
        list(starts),
        list(accumulate(map(mul, rates, durations), initial=offset)),
        [*rates, 1.0],
    )


class Draws(NamedTuple):
    """Wandering clocks as the ``rng.random()`` stream they were drawn
    from.  Per clock, in order, ``1 + steps`` values: the first makes
    ``H(0) = offset_scale * value`` (``rng.uniform(0, offset_scale)``
    bit for bit), the rest are its rate draws over ``schedule``
    (:func:`drift_row`)."""

    schedule: Schedule
    offset_scale: float
    stream: List[float]

    @classmethod
    def take(
        cls, rng, clocks: int, schedule: Schedule, offset_scale: float
    ) -> "Draws":
        """The next ``clocks`` wandering clocks drawn from ``rng``."""
        steps = len(drift_schedule(*schedule)[0])
        stream = starmap(rng.random, repeat((), clocks * (1 + steps)))
        return cls(schedule, offset_scale, list(stream))

    def row(self, clock: int, theta: float) -> Row:
        """The segment row of wandering clock ``clock``."""
        steps = len(drift_schedule(*self.schedule)[0])
        first = clock * (1 + steps)
        return drift_row(
            self.offset_scale * self.stream[first],
            self.stream[first + 1:first + 1 + steps],
            theta,
            self.schedule,
        )


class HardwareClock:
    """A strictly increasing piecewise-linear hardware clock.

    Parameters
    ----------
    segments:
        Linear pieces in strictly increasing ``t_start`` order.  Consecutive
        segments must agree at the junction (continuity), the first segment
        must start at ``t = 0``, and all rates must be positive.
    theta:
        If given, every rate must lie in ``[1, theta]``; otherwise rates
        only need to be positive.
    tolerance:
        How close two times must be to count as equal.
    """

    def __init__(
        self,
        segments: Sequence[ClockSegment],
        theta: Optional[float] = None,
        tolerance: float = RELATIVE_TOLERANCE,
    ) -> None:
        self._starts, self._local_starts, self._rates = check_row(
            _row_of(segments), theta, tolerance
        )
        self.theta = theta
        self.tolerance = tolerance

    @classmethod
    def over_row(
        cls,
        row: Row,
        theta: Optional[float] = None,
        tolerance: float = RELATIVE_TOLERANCE,
    ) -> "HardwareClock":
        """A clock over a row that :func:`check_row` already passed."""
        clock = cls.__new__(cls)
        clock._starts, clock._local_starts, clock._rates = row
        clock.theta = theta
        clock.tolerance = tolerance
        return clock

    # ------------------------------------------------------------------
    # Evaluation

    def local_time(self, t: float) -> float:
        """Evaluate ``H(t)`` for real time ``t >= 0``."""
        if t < -self.tolerance:
            raise ClockError(f"real time must be non-negative, got {t}")
        t = max(t, 0.0)
        index = bisect.bisect_right(self._starts, t) - 1
        return self._local_starts[index] + self._rates[index] * (
            t - self._starts[index]
        )

    def real_time(self, local: float) -> float:
        """Evaluate ``H^{-1}(local)``: when does the clock read ``local``?

        Requires ``local >= H(0)`` (the clock never reads earlier values).
        """
        if local < self._local_starts[0] - self.tolerance:
            raise ClockError(
                f"local time {local} precedes clock start "
                f"{self._local_starts[0]}"
            )
        index = bisect.bisect_right(self._local_starts, local) - 1
        index = max(index, 0)
        return self._starts[index] + (
            local - self._local_starts[index]
        ) / self._rates[index]

    @property
    def offset_at_zero(self) -> float:
        """``H(0)``, the initial clock reading."""
        return self._local_starts[0]

    def segments(self) -> List[ClockSegment]:
        """The linear pieces, in order (a copy; clocks are immutable).

        Consumers that batch-evaluate clocks read the piecewise form
        through this accessor (or, for a whole :class:`ClockEnsemble`,
        its ``entries``) instead of re-deriving it by sampling.
        """
        return [
            ClockSegment(*piece)
            for piece in zip(self._starts, self._local_starts, self._rates)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HardwareClock({len(self._starts)} segments)"

    # ------------------------------------------------------------------
    # Factories

    @classmethod
    def constant_rate(
        cls,
        rate: float = 1.0,
        offset: float = 0.0,
        theta: Optional[float] = None,
    ) -> "HardwareClock":
        """A clock with fixed rate: ``H(t) = offset + rate * t``."""
        return cls.over_row(
            check_row(constant_row(rate, offset), theta), theta
        )

    @classmethod
    def from_rates(
        cls,
        pieces: Sequence[Tuple[float, float]],
        tail_rate: float = 1.0,
        offset: float = 0.0,
        theta: Optional[float] = None,
    ) -> "HardwareClock":
        """Build a clock from ``(duration, rate)`` pieces plus a tail rate.

        Example: ``from_rates([(5.0, 1.02)], tail_rate=1.0)`` runs 2% fast
        for five time units and at nominal rate afterwards.
        """
        durations = [duration for duration, _ in pieces]
        for duration in durations:
            if duration <= 0:
                raise ClockError(
                    f"piece duration must be positive: {duration}"
                )
        rates = [rate for _, rate in pieces]
        row = rate_row(durations, rates, tail_rate, offset)
        return cls.over_row(check_row(row, theta), theta)

    @classmethod
    def random_drift(
        cls,
        rng,
        theta: float,
        offset: float = 0.0,
        horizon: float = 1000.0,
        segment_length: float = 10.0,
    ) -> "HardwareClock":
        """A clock whose rate re-draws uniformly from ``[1, theta]``.

        ``rng`` is a :class:`random.Random` (or anything with its
        ``random()``); the rate re-draws every ``segment_length`` over
        ``[0, horizon]`` and is 1 afterwards: the :func:`drift_row` of
        ``rng``'s next draws.
        """
        schedule = (horizon, segment_length)
        draws = [rng.random() for _ in drift_schedule(*schedule)[0]]
        row = drift_row(offset, draws, theta, schedule)
        return cls.over_row(check_row(row, theta), theta)

    @classmethod
    def fast_then_shifted(
        cls,
        theta: float,
        shift: float,
        offset: float = 0.0,
    ) -> "HardwareClock":
        """The lower bound's adversarial clock.

        ``H(t) = theta * t`` for ``t <= shift / (theta - 1)`` and
        ``H(t) = t + shift`` afterwards (Section 4 uses
        ``shift = 2 * u_tilde / 3``).  Continuous by construction.
        """
        if theta <= 1.0:
            raise ClockError("fast_then_shifted needs theta > 1")
        if shift < 0:
            raise ClockError("shift must be non-negative")
        if shift == 0:
            return cls.constant_rate(1.0, offset=offset, theta=theta)
        switch = shift / (theta - 1.0)
        return cls(
            [
                ClockSegment(0.0, offset, theta),
                ClockSegment(switch, offset + theta * switch, 1.0),
            ],
            theta=theta,
        )


class ClockEnsemble(abc.Sequence):
    """The clocks of a whole system, held in the form they were made in.

    ``entries`` holds a segment :data:`Row` per node, or ``None`` for a
    wandering node: the next clock of ``draws``.  Nothing is derived or
    validated here — each engine lays the ensemble out the way it reads
    it and checks that layout once.  Indexing hands out a
    :class:`HardwareClock` over the node's row, built and passed
    through :func:`check_row` on first use: the event engine's layout,
    which needs no numpy.  The vectorized engine's ``ClockTable``
    derives and checks every row at once as ``(n, K)`` columns.
    """

    def __init__(
        self,
        entries: Sequence[Optional[Row]],
        theta: Optional[float] = None,
        draws: Optional[Draws] = None,
        tolerance: float = RELATIVE_TOLERANCE,
    ) -> None:
        wandering = count()
        #: Each node's row, or the index of its clock in ``draws``.
        self.entries: List[Union[Row, int]] = [
            next(wandering) if entry is None else entry for entry in entries
        ]
        self.theta = theta
        self.draws = draws
        self.tolerance = tolerance
        self._rows: List[Optional[Row]] = [None] * len(self.entries)

    @classmethod
    def of(cls, clocks: Sequence[HardwareClock]) -> "ClockEnsemble":
        """``clocks`` itself when it is a table, else its tabulation."""
        if isinstance(clocks, cls):
            return clocks
        return cls([_row_of(clock.segments()) for clock in clocks])

    def row(self, node: int) -> Row:
        """Node ``node``'s segment row, checked by :func:`check_row`
        (built and checked once, then kept)."""
        row = self._rows[node]
        if row is None:
            entry = self.entries[node]
            if isinstance(entry, int):
                entry = self.draws.row(entry, self.theta)
            row = self._rows[node] = check_row(
                entry, self.theta, self.tolerance
            )
        return row

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[v] for v in range(len(self))[index]]
        return HardwareClock.over_row(
            self.row(index), self.theta, self.tolerance
        )


def validate_offset_spread(
    offsets: Sequence[float], bound: float
) -> None:
    """Check the initialization assumption on the ``H_v(0)`` column:
    ``max |H_v(0) - H_w(0)| <= bound``, relative to ``bound``."""
    spread = max(offsets) - min(offsets)
    if spread > bound + RELATIVE_TOLERANCE * bound:
        raise ClockError(
            f"initial clock skew {spread} exceeds allowed bound {bound}"
        )
    if not all(map(math.isfinite, offsets)):
        raise ClockError("clock offsets must be finite")


def validate_initial_skew(
    clocks: Sequence[HardwareClock], bound: float
) -> None:
    """:func:`validate_offset_spread` of the clocks' ``H(0)``."""
    validate_offset_spread(
        [clock.offset_at_zero for clock in clocks], bound
    )
