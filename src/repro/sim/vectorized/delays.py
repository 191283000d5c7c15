"""Per-round delay matrices for the vectorized backend.

The event engine asks the :class:`~repro.sim.network.DelayPolicy` for
one delay per message; the vectorized engine needs the same answers as
a ``(receivers, senders)`` array per pulse round.  Every built-in
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

from typing import Any, Sequence

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
    mask = np.zeros(len(nodes), dtype=bool)
    member_set = set(members)
    for index, node in enumerate(nodes):
        if node in member_set:
            mask[index] = True
    return mask


def delay_matrix(
    policy: DelayPolicy,
    config: NetworkConfig,
    senders: Sequence[int],
    receivers: Sequence[int],
    send_real: "np.ndarray",
    rng: Any = None,
) -> "np.ndarray":
    """Delays of one round's dealer broadcasts, shape
    ``(len(receivers), len(senders))``.

    ``send_real[j]`` is the real send time of ``senders[j]``'s
    broadcast; entry ``[i, j]`` is the delay of the message
    ``senders[j] → receivers[i]``.  ``rng`` carries the persistent
    numpy generator for :class:`RandomDelayPolicy` (one per run, so
    successive rounds draw fresh values).  Self-links (where a
    receiver equals a sender) are computed like any other entry and
    must be masked by the caller.
    """
    shape = (len(receivers), len(senders))
    low, high = config.delay_bounds(True)
    kind = type(policy)
    if kind is MinimumDelayPolicy:
        matrix = np.full(shape, low)
    elif kind is ConstantFractionDelayPolicy:
        matrix = np.full(shape, high - policy.fraction * (high - low))
    elif kind is RandomDelayPolicy:
        matrix = rng.uniform(low, high, size=shape)
    elif kind is BiasedPartitionDelayPolicy:
        src_a = _membership(senders, policy.group_a)[None, :]
        dst_a = _membership(receivers, policy.group_a)[:, None]
        matrix = np.where(src_a == dst_a, low, high)
    elif kind is SkewingDelayPolicy:
        # Sender-only mask: broadcast explicitly, or the matrix comes
        # out (1, senders) instead of (receivers, senders).
        slow = _membership(senders, policy.slow_senders)[None, :]
        matrix = np.broadcast_to(
            np.where(slow, high, low), shape
        ).copy()
    elif kind is EclipseDelayPolicy:
        src_v = _membership(senders, policy.victims)[None, :]
        dst_v = _membership(receivers, policy.victims)[:, None]
        matrix = np.where(src_v | dst_v, high, low)
    elif kind is FlickeringPartitionDelayPolicy:
        src_a = _membership(senders, policy.group_a)[None, :]
        dst_a = _membership(receivers, policy.group_a)[:, None]
        same = src_a == dst_a
        phase = (
            np.floor_divide(send_real, policy.period).astype(np.int64) % 2
        )[None, :]
        fast = np.where(phase == 0, same, ~same)
        matrix = np.where(fast, low, high)
    elif kind in (MaximumDelayPolicy, DelayPolicy):
        matrix = np.full(shape, config.d)
    else:
        # Generic subclass: fall back to the scalar protocol so any
        # custom policy stays correct (O(senders x receivers) calls).
        matrix = np.empty(shape)
        for i, dst in enumerate(receivers):
            for j, src in enumerate(senders):
                matrix[i, j] = policy.delay(
                    config, src, dst, float(send_real[j]), None, True
                )
    if matrix.size and (
        matrix.min() < low - EPS or matrix.max() > high + EPS
    ):
        raise ModelViolation(
            f"{policy.describe()} produced a delay outside "
            f"[{low}, {high}]"
        )
    return matrix
