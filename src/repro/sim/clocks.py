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
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sim.errors import ClockError

#: Tolerance for floating-point comparisons of times and rates.
EPS = 1e-9


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


class HardwareClock:
    """A strictly increasing piecewise-linear hardware clock.

    Parameters
    ----------
    segments:
        Linear pieces in strictly increasing ``t_start`` order.  Consecutive
        segments must agree at the junction (continuity), the first segment
        must start at ``t = 0``, and all rates must be positive.
    theta:
        If given, every rate must lie in ``[1, theta]`` (up to ``EPS``);
        otherwise rates only need to be positive.  The lower-bound engine
        constructs clocks without a theta check because it evaluates clocks
        of *other executions* whose theta is checked elsewhere.
    """

    def __init__(
        self,
        segments: Sequence[ClockSegment],
        theta: Optional[float] = None,
    ) -> None:
        if not segments:
            raise ClockError("a clock needs at least one segment")
        if abs(segments[0].t_start) > EPS:
            raise ClockError(
                f"first segment must start at t=0, got {segments[0].t_start}"
            )
        previous: Optional[ClockSegment] = None
        for segment in segments:
            if segment.rate <= 0:
                raise ClockError(f"clock rate must be positive: {segment}")
            if theta is not None and not (
                1.0 - EPS <= segment.rate <= theta + EPS
            ):
                raise ClockError(
                    f"rate {segment.rate} outside [1, {theta}]: {segment}"
                )
            if previous is not None:
                if segment.t_start <= previous.t_start:
                    raise ClockError("segments must have increasing t_start")
                expected = previous.local_start + previous.rate * (
                    segment.t_start - previous.t_start
                )
                if abs(expected - segment.local_start) > 1e-6:
                    raise ClockError(
                        "discontinuous clock: expected local "
                        f"{expected}, got {segment.local_start}"
                    )
            previous = segment
        if segments[0].local_start < -EPS:
            raise ClockError("clock must be non-negative at t=0")
        self._segments: List[ClockSegment] = list(segments)
        self._starts = [segment.t_start for segment in self._segments]
        self._local_starts = [seg.local_start for seg in self._segments]
        self.theta = theta

    # ------------------------------------------------------------------
    # Evaluation

    def local_time(self, t: float) -> float:
        """Evaluate ``H(t)`` for real time ``t >= 0``."""
        if t < -EPS:
            raise ClockError(f"real time must be non-negative, got {t}")
        t = max(t, 0.0)
        index = bisect.bisect_right(self._starts, t) - 1
        segment = self._segments[index]
        return segment.local_start + segment.rate * (t - segment.t_start)

    def real_time(self, local: float) -> float:
        """Evaluate ``H^{-1}(local)``: when does the clock read ``local``?

        Requires ``local >= H(0)`` (the clock never reads earlier values).
        """
        if local < self._local_starts[0] - EPS:
            raise ClockError(
                f"local time {local} precedes clock start "
                f"{self._local_starts[0]}"
            )
        index = bisect.bisect_right(self._local_starts, local) - 1
        index = max(index, 0)
        segment = self._segments[index]
        return segment.t_start + (local - segment.local_start) / segment.rate

    @property
    def offset_at_zero(self) -> float:
        """``H(0)``, the initial clock reading."""
        return self._local_starts[0]

    def segments(self) -> List[ClockSegment]:
        """The linear pieces, in order (a copy; clocks are immutable).

        Consumers that batch-evaluate clocks — the vectorized backend
        turns these into numpy arrays — read the piecewise form through
        this accessor instead of re-deriving it by sampling.
        """
        return list(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HardwareClock({len(self._segments)} segments)"

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
        return cls([ClockSegment(0.0, offset, rate)], theta=theta)

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
        segments: List[ClockSegment] = []
        t = 0.0
        local = offset
        for duration, rate in pieces:
            if duration <= 0:
                raise ClockError(f"piece duration must be positive: {duration}")
            segments.append(ClockSegment(t, local, rate))
            local += rate * duration
            t += duration
        segments.append(ClockSegment(t, local, tail_rate))
        return cls(segments, theta=theta)

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

        ``rng`` is a :class:`random.Random` (or API-compatible) instance;
        the draw schedule covers ``[0, horizon]`` and continues at rate 1
        afterwards.
        """
        pieces: List[Tuple[float, float]] = []
        t = 0.0
        while t < horizon:
            pieces.append((segment_length, rng.uniform(1.0, theta)))
            t += segment_length
        return cls.from_rates(pieces, tail_rate=1.0, offset=offset, theta=theta)

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


def validate_initial_skew(
    clocks: Sequence[HardwareClock], bound: float
) -> None:
    """Check the ``max |H_v(0) - H_w(0)| <= bound`` initialization assumption."""
    offsets = [clock.offset_at_zero for clock in clocks]
    spread = max(offsets) - min(offsets)
    if spread > bound + EPS:
        raise ClockError(
            f"initial clock skew {spread} exceeds allowed bound {bound}"
        )
    if not all(math.isfinite(offset) for offset in offsets):
        raise ClockError("clock offsets must be finite")
