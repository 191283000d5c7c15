"""Per-round delay matrices for the vectorized backend.

The event engine asks the :class:`~repro.sim.network.DelayPolicy` for
one delay per message; the vectorized engine needs the same answers as
``(receivers, senders)`` arrays, one per block of receiver rows, every
pulse round.  :func:`round_delays` does the sender-side work once per
round and returns the function the engine calls per block;
:func:`delay_matrix` is that function at one block.  Every built-in
policy has a closed-form fast path here (the formulas mirror the
scalar ``delay()`` implementations line for line); unknown policy
subclasses fall back to per-pair scalar calls, which keeps any custom
policy *correct* on this backend, just not fast.

Two deliberate semantic notes:

* Only honest→honest links matter — silent faulty nodes send nothing —
  so every sampled delay uses the honest-link bounds ``[d - u, d]``.
  Columns belonging to faulty senders are masked out by the engine
  before use.
* :class:`~repro.sim.network.RandomDelayPolicy` draws from a
  numpy ``Generator`` seeded with the policy's seed instead of
  replaying the event engine's per-message ``random.Random`` stream:
  the two engines deliver messages in different orders, so draw-order
  equality is unattainable by construction.  Both streams are
  admissible and deterministic per seed; the differential suite
  compares random-delay scenarios at the verdict level only.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

try:  # gated dependency: the event engine must work without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.sim.clocks import EPS
from repro.sim.errors import ModelViolation
from repro.sim.network import (
    BiasedPartitionDelayPolicy,
    ConstantFractionDelayPolicy,
    DelayPolicy,
    EclipseDelayPolicy,
    FlickeringPartitionDelayPolicy,
    MaximumDelayPolicy,
    MinimumDelayPolicy,
    NetworkConfig,
    RandomDelayPolicy,
    SkewingDelayPolicy,
)


def delay_rng(policy: RandomDelayPolicy):
    """The per-run numpy generator backing a random policy's draws."""
    return np.random.default_rng(policy.seed)


def _membership(nodes: Sequence[int], members) -> "np.ndarray":
    return np.fromiter(
        (node in members for node in nodes), dtype=bool, count=len(nodes)
    )


def round_delays(
    policy: DelayPolicy,
    config: NetworkConfig,
    senders: Sequence[int],
    send_real: "np.ndarray",
    rng: Any = None,
) -> Callable[[Sequence[int]], "np.ndarray"]:
    """One round's dealer-broadcast delays, as a function of the
    receiver block.

    Everything that depends on the senders alone — membership masks,
    the flicker phase of each send time — is computed here, once per
    round; the returned ``block(receivers)`` gives the
    ``(len(receivers), len(senders))`` delays of one block of receiver
    rows as a fresh array the caller may overwrite, and checks that
    block's admissibility.  ``send_real[j]`` is the real send time of
    ``senders[j]``'s broadcast; entry ``[i, j]`` is the delay of the
    message ``senders[j] → receivers[i]``.  ``rng`` carries the
    persistent numpy generator for :class:`RandomDelayPolicy` (one per
    run, so successive rounds draw fresh values); it fills row-major,
    so consecutive row blocks consume the stream exactly as one
    all-rows call would.  Self-links (where a receiver equals a
    sender) are computed like any other entry and must be masked by
    the caller.
    """
    width = len(senders)
    low, high = config.delay_bounds(True)
    kind = type(policy)

    def constant(value: float):
        return lambda receivers: np.full((len(receivers), width), value)

    def by_receiver(group, inside, outside):
        # Sender-side rows: `inside` for receivers in `group`,
        # `outside` for the rest.
        return lambda receivers: np.where(
            _membership(receivers, group)[:, None], inside, outside
        )

    if kind is MinimumDelayPolicy:
        fill = constant(low)
    elif kind is ConstantFractionDelayPolicy:
        fill = constant(high - policy.fraction * (high - low))
    elif kind is RandomDelayPolicy:
        def fill(receivers):
            return rng.uniform(low, high, size=(len(receivers), width))
    elif kind is BiasedPartitionDelayPolicy:
        src_a = _membership(senders, policy.group_a)
        fill = by_receiver(
            policy.group_a,
            np.where(src_a, low, high),
            np.where(src_a, high, low),
        )
    elif kind is SkewingDelayPolicy:
        row = np.where(_membership(senders, policy.slow_senders), high, low)

        def fill(receivers):
            return np.tile(row, (len(receivers), 1))
    elif kind is EclipseDelayPolicy:
        src_v = _membership(senders, policy.victims)
        fill = by_receiver(
            policy.victims, high, np.where(src_v, high, low)
        )
    elif kind is FlickeringPartitionDelayPolicy:
        src_a = _membership(senders, policy.group_a)
        phase = (
            np.floor_divide(send_real, policy.period).astype(np.int64) % 2
        )
        # To a receiver in group A the fast senders are its own group
        # in even phases and the other group in odd ones; to any other
        # receiver, the complement.
        fast = src_a == (phase == 0)
        fill = by_receiver(
            policy.group_a,
            np.where(fast, low, high),
            np.where(fast, high, low),
        )
    elif kind in (MaximumDelayPolicy, DelayPolicy):
        fill = constant(config.d)
    else:
        # Generic subclass: fall back to the scalar protocol so any
        # custom policy stays correct (O(senders x receivers) calls).
        times = send_real.tolist()

        def fill(receivers):
            matrix = np.empty((len(receivers), width))
            for i, dst in enumerate(receivers):
                for j, src in enumerate(senders):
                    matrix[i, j] = policy.delay(
                        config, src, dst, times[j], None, True
                    )
            return matrix

    def block(receivers: Sequence[int]) -> "np.ndarray":
        matrix = fill(receivers)
        if matrix.size and (
            matrix.min() < low - EPS or matrix.max() > high + EPS
        ):
            raise ModelViolation(
                f"{policy.describe()} produced a delay outside "
                f"[{low}, {high}]"
            )
        return matrix

    return block


def delay_matrix(
    policy: DelayPolicy,
    config: NetworkConfig,
    senders: Sequence[int],
    receivers: Sequence[int],
    send_real: "np.ndarray",
    rng: Any = None,
) -> "np.ndarray":
    """:func:`round_delays` at one block: the delays of one round's
    dealer broadcasts to ``receivers``, shape
    ``(len(receivers), len(senders))``."""
    return round_delays(policy, config, senders, send_real, rng)(receivers)
