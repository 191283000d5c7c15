"""Network model: configuration and message-delay policies.

The paper assumes a fully connected network where any message to or from an
honest node is delivered after at least ``d - u`` and at most ``d`` time.
For the lower bound (and for Section 1's discussion of its consequences),
links with a faulty endpoint may instead only guarantee a *weaker* minimum
delay ``d - u_tilde`` with ``u_tilde in [u, d]``.

The adversary controls delays within these bounds.  We expose that control
as a :class:`DelayPolicy`: one rule over membership, send time and link
honesty only, evaluated by both engines.  Adaptive, payload-aware delay
control is a Byzantine behaviour's job, through ``send_from(..., delay)``.
The scheduler validates every delay against the model bounds and raises
:class:`~repro.sim.errors.ModelViolation` otherwise, so a misbehaving
policy cannot silently break an experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Iterable, Optional, Tuple

from repro.core.params import time_tolerance
from repro.sim.errors import ConfigurationError, ModelViolation


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of the network model.

    Attributes
    ----------
    n:
        Number of nodes.
    d:
        Maximum end-to-end delay (send to completed processing).
    u:
        Delay uncertainty on links between honest nodes; honest-link delays
        lie in ``[d - u, d]``.
    u_tilde:
        Delay uncertainty on links with at least one faulty endpoint
        (defaults to ``u``).  Setting ``u_tilde > u`` reproduces the lower
        bound's weaker guarantee for faulty links.
    tolerance:
        ``time_tolerance(d)`` (an attribute, not a field).
    """

    n: int
    d: float
    u: float
    u_tilde: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.d <= 0:
            raise ConfigurationError(f"d must be positive, got {self.d}")
        if not 0 <= self.u <= self.d:
            raise ConfigurationError(
                f"u must lie in [0, d={self.d}], got {self.u}"
            )
        tolerance = time_tolerance(self.d)
        if self.u_tilde is not None and not (
            self.u - tolerance <= self.u_tilde <= self.d + tolerance
        ):
            raise ConfigurationError(
                f"u_tilde must lie in [u={self.u}, d={self.d}], "
                f"got {self.u_tilde}"
            )
        # The tolerance and the two admissible intervals, computed once:
        # delay_bounds runs per message (policy + validation).  Plain
        # instance attributes, not fields, so equality, repr and
        # replace() see only the model parameters.
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(
            self, "_honest_bounds", (self.d - self.u, self.d)
        )
        object.__setattr__(
            self,
            "_faulty_bounds",
            (self.d - self.faulty_uncertainty, self.d),
        )

    @property
    def faulty_uncertainty(self) -> float:
        """Effective uncertainty on links with a faulty endpoint."""
        return self.u if self.u_tilde is None else self.u_tilde

    def delay_bounds(self, link_is_honest: bool) -> Tuple[float, float]:
        """Admissible ``(min, max)`` delay for a link."""
        return self._honest_bounds if link_is_honest else self._faulty_bounds

    def validate_delay(
        self, delay: float, src_honest: bool, dst_honest: bool
    ) -> float:
        """Check ``delay`` against the model; return it (clamped to bounds).

        Raises :class:`ModelViolation` if the delay is outside the
        admissible interval by more than the floating tolerance.
        """
        low, high = self.delay_bounds(src_honest and dst_honest)
        if delay < low - self.tolerance or delay > high + self.tolerance:
            raise ModelViolation(
                f"delay {delay} outside [{low}, {high}] "
                f"(src_honest={src_honest}, dst_honest={dst_honest})"
            )
        return min(max(delay, low), high)


class DelayPolicy:
    """Chooses the delay of each message (the adversary's delay control).

    One rule, which both engines evaluate: a message takes its link's
    maximum delay where :meth:`slow` holds and its minimum elsewhere —
    or the ``(fast, slow)`` pair ``levels(low, high)`` makes of them.
    ``slow`` sees the endpoints' membership in ``members``, the send
    time and the link's honesty, and uses only ``==``, ``!=``, ``|``,
    ``&`` and ``//``: it works on bools (:meth:`delay`) and on numpy
    arrays (the vectorized engine).  The base rule is ``d`` for every
    message.  Overriding :meth:`delay` confines a policy to the event
    engine, but for :class:`RandomDelayPolicy`, whose draws the
    vectorized engine makes from its own stream.

    Ordering contract: the scheduler calls :meth:`delay` exactly once
    per message, at send time, and a broadcast asks for its
    destinations in ascending ``dst`` order (skipping the sender) —
    the same sequence as a loop of unicast sends.  Stateful policies
    (:class:`RandomDelayPolicy` draws from one RNG stream) rely on
    this for reproducibility.
    """

    members: FrozenSet[int] = frozenset()
    levels: Optional[Callable[[float, float], Tuple[float, float]]] = None

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        """Where a message takes the slow delay (elementwise)."""
        return True

    def delay(
        self,
        config: NetworkConfig,
        src: int,
        dst: int,
        send_time: float,
        payload: Any,
        link_is_honest: bool,
    ) -> float:
        """The rule at one message."""
        # delay_bounds, inlined: this runs once per message.
        fast, slow = (
            config._honest_bounds if link_is_honest else config._faulty_bounds
        )
        levels = self.levels
        if levels is not None:
            fast, slow = levels(fast, slow)
        members = self.members
        if self.slow(
            src in members, dst in members, send_time, link_is_honest
        ):
            return slow
        return fast

    def describe(self) -> str:
        """Short human-readable policy description.

        Used by experiment tables and recorded as run-shape metadata by
        the telemetry layer (the ``delay_policies`` entry of a
        :class:`~repro.telemetry.metrics.Telemetry` snapshot), so it
        must stay deterministic — derive it from configuration, never
        from per-run state.
        """
        return type(self).__name__


class MaximumDelayPolicy(DelayPolicy):
    """Every message takes exactly ``d``."""


class MinimumDelayPolicy(DelayPolicy):
    """Every message takes the minimum admissible delay for its link."""

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return False


class ConstantFractionDelayPolicy(DelayPolicy):
    """Every message takes ``d - fraction * uncertainty`` for its link.

    ``fraction = 0`` is :class:`MaximumDelayPolicy`; ``fraction = 1`` is
    :class:`MinimumDelayPolicy`.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must lie in [0, 1], got {fraction}"
            )
        self.fraction = fraction

    def levels(self, low, high):
        value = high - self.fraction * (high - low)
        return value, value

    def describe(self) -> str:
        return f"constant(fraction={self.fraction})"


class RandomDelayPolicy(DelayPolicy):
    """Delays drawn uniformly from the admissible interval, per message."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._random = self._rng.random
        self.seed = seed

    def delay(self, config, src, dst, send_time, payload, link_is_honest):
        # delay_bounds and Random.uniform inlined: this runs once per
        # message, and ``low + (high - low) * random()`` is uniform's
        # own formula, so the stream of delays is unchanged bit for bit.
        low, high = (
            config._honest_bounds if link_is_honest else config._faulty_bounds
        )
        return low + (high - low) * self._random()

    def describe(self) -> str:
        return f"random(seed={self.seed})"


class BiasedPartitionDelayPolicy(DelayPolicy):
    """Adversarial delays that pull two node groups apart.

    Messages *within* a group travel at minimum delay, messages *across*
    groups at maximum delay.  Against averaging-style synchronizers this is
    the classic worst case: each group perceives the other as farther in
    the past than it is, sustaining a skew proportional to the uncertainty.
    """

    def __init__(self, group_a: Iterable[int]) -> None:
        self.members = self.group_a = frozenset(group_a)

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return src_in != dst_in

    def describe(self) -> str:
        return f"biased(group_a={sorted(self.group_a)})"


class SkewingDelayPolicy(DelayPolicy):
    """Delays that make group A appear *late* and group B appear *early*.

    Messages from A are delivered as slowly as possible and messages from B
    as fast as possible.  Receivers therefore estimate A's pulses as later
    than they were, dragging corrections in opposite directions for the two
    groups.
    """

    def __init__(self, slow_senders: Iterable[int]) -> None:
        self.members = self.slow_senders = frozenset(slow_senders)

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return src_in

    def describe(self) -> str:
        return f"skewing(slow={sorted(self.slow_senders)})"


class EclipseDelayPolicy(DelayPolicy):
    """Starve a victim set of timely information.

    Every message *to or from* a victim takes the maximum delay ``d``
    while the rest of the network communicates at the minimum admissible
    delay — the delay-model analogue of an eclipse attack.  The victims'
    estimates of everyone else (and everyone's estimates of the victims)
    are as stale as the model permits, while the non-victims converge
    tightly among themselves.
    """

    def __init__(self, victims: Iterable[int]) -> None:
        self.members = self.victims = frozenset(victims)

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return src_in | dst_in

    def describe(self) -> str:
        return f"eclipse(victims={sorted(self.victims)})"


class FlickeringPartitionDelayPolicy(DelayPolicy):
    """A partition whose fast/slow orientation flips every ``period``.

    During even phases (``floor(send_time / period)`` even) traffic
    *within* each group is fast and cross-group traffic slow — the
    :class:`BiasedPartitionDelayPolicy` worst case; during odd phases
    the roles reverse.  A time-varying adversary like this probes the
    *stability* of the synchronizer's correction loop rather than its
    static steady state: the delay landscape changes faster than the
    estimates that were made under the previous phase expire.
    """

    def __init__(self, group_a: Iterable[int], period: float) -> None:
        if period <= 0:
            raise ConfigurationError(
                f"period must be positive, got {period}"
            )
        self.members = self.group_a = frozenset(group_a)
        self.period = period

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return (src_in != dst_in) == (send_time // self.period % 2 == 0)

    def describe(self) -> str:
        return (
            f"flicker(group_a={sorted(self.group_a)}, "
            f"period={self.period})"
        )
