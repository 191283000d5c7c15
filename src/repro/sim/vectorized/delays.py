"""Per-round delay matrices for the vectorized backend.

A :class:`~repro.sim.network.DelayPolicy` is one rule — ``members``,
an elementwise ``slow`` and optional ``levels`` — over membership,
send time and link honesty only (adaptive, payload-aware delay control
is a Byzantine behaviour's job, through ``send_from(..., delay)``).
The event engine evaluates it per message on bools; here it is
evaluated on arrays.  A receiver enters it through its membership
alone, so :func:`round_delays` evaluates it once a round over the
senders, for a non-member and for a member receiver, and returns the
function the engine calls per block of receiver rows, which picks each
row from those two; :func:`delay_matrix` is that function at one
block.  :func:`class_delays` hands the engine the two rows themselves,
for the rounds it evaluates per receiver class instead of per block.
The engine refuses a policy that overrides ``delay()`` (but
:class:`~repro.sim.network.RandomDelayPolicy`) at construction.

Two deliberate semantic notes:

* Only honest→honest links matter — silent faulty nodes send nothing —
  so every delay uses the honest-link bounds ``[d - u, d]``.
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

from typing import Any, Callable, Sequence, Tuple

try:  # gated dependency: the event engine must work without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.sim.errors import ModelViolation
from repro.sim.network import DelayPolicy, NetworkConfig, RandomDelayPolicy


def delay_rng(policy: RandomDelayPolicy):
    """The per-run numpy generator backing a random policy's draws."""
    return np.random.default_rng(policy.seed)


def _membership(nodes: Sequence[int], members) -> "np.ndarray":
    return np.isin(nodes, np.fromiter(members, np.intp, len(members)))


def _class_rows(
    policy: DelayPolicy,
    low: float,
    high: float,
    src_in: "np.ndarray",
    send_real: "np.ndarray",
) -> "np.ndarray":
    """The rule over the senders: row 0 holds the delays to a
    non-member receiver, row 1 to a member."""
    levels = policy.levels
    fast, slow = (low, high) if levels is None else levels(low, high)
    width = len(src_in)
    return np.array([
        np.where(
            np.broadcast_to(
                policy.slow(src_in, dst_in, send_real, True), width
            ),
            slow,
            fast,
        )
        for dst_in in (False, True)
    ])


def _check_admissible(
    policy: DelayPolicy, config: NetworkConfig, matrix: "np.ndarray"
) -> None:
    low, high = config.delay_bounds(True)
    if matrix.size and (
        matrix.min() < low - config.tolerance
        or matrix.max() > high + config.tolerance
    ):
        raise ModelViolation(
            f"{policy.describe()} produced a delay outside "
            f"[{low}, {high}]"
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

    Everything that depends on the senders alone — their membership,
    the policy's rule at their send times — is computed here, once per
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

    if isinstance(policy, RandomDelayPolicy):
        def fill(receivers):
            return rng.uniform(low, high, size=(len(receivers), width))
    else:
        members = policy.members
        by_class = _class_rows(
            policy, low, high, _membership(senders, members), send_real
        )

        def fill(receivers):
            return by_class[_membership(receivers, members).astype(np.intp)]

    def block(receivers: Sequence[int]) -> "np.ndarray":
        matrix = fill(receivers)
        _check_admissible(policy, config, matrix)
        return matrix

    return block


def class_delays(
    policy: DelayPolicy,
    config: NetworkConfig,
    nodes: Sequence[int],
    send_real: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """A deterministic rule's round when ``nodes`` both send and
    receive, by receiver class: ``(rows, member)``, where
    ``rows[member[i]]`` is the row :func:`round_delays` gives receiver
    ``nodes[i]`` — row 0 for a non-member, row 1 for a member.

    The rows some receiver takes are checked for admissibility, as
    ``round_delays`` checks the blocks it is asked for.
    """
    low, high = config.delay_bounds(True)
    src_in = _membership(nodes, policy.members)
    rows = _class_rows(policy, low, high, src_in, send_real)
    member = src_in.astype(np.intp)
    _check_admissible(policy, config, rows[np.unique(member)])
    return rows, member


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
