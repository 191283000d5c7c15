"""The Lynch-Welch pulse synchronizer [25] (signature-free baseline).

Structurally the ancestor of Algorithm CPS: each node broadcasts a plain
(unsigned) pulse announcement, converts reception times into offset
estimates, discards the ``f`` lowest and highest estimates, and corrects by
the midpoint of the rest.  Without signatures there is no echo mechanism
and no ⊥ detection, hence:

* resilience tops out at ``f < n/3`` (``ceil(n/3) - 1``) — a faulty node
  can *appear at a different position of the sorted estimate vector to
  every honest node*, which the fixed discard of ``f`` per side only
  survives when honest values outnumber faulty ones 2:1 among the
  retained entries;
* a missing announcement cannot be proven faulty, so it is replaced by a
  window-end (maximally late) estimate rather than a ⊥ that would relax
  the discard count.

With ``f < n/3`` the skew bound has the same ``Theta(u + (theta-1) d)``
form as CPS (the paper: "the same asymptotic bounds on skew can be
achieved as in the fault-free case"); we reuse the CPS parameter
derivation, which is valid (slightly conservative) for LW.  Experiment E5
runs the *same* timing attack against LW and CPS across the fault range to
exhibit the resilience gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.params import ProtocolParameters, derive_parameters
from repro.core.tcb import offset_estimate
from repro.sim.adversary import ByzantineBehavior
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sync.approx_agreement import midpoint_rule


def lw_max_faults(n: int) -> int:
    """Signature-free resilience: the largest ``f`` with ``n >= 3f + 1``."""
    return max((n - 1) // 3, 0)


def derive_lw_parameters(
    theta: float,
    d: float,
    u: float,
    n: int,
    f: Optional[int] = None,
) -> ProtocolParameters:
    """Lynch-Welch parameters (CPS derivation at LW's resilience)."""
    if f is None:
        f = lw_max_faults(n)
    return derive_parameters(theta, d, u, n, f=f)


@dataclass(frozen=True)
class LwMessage:
    """A plain (unsigned) pulse announcement for round ``r``."""

    pulse_round: int


class LynchWelchNode(TimedProtocol):
    """One honest node of the Lynch-Welch synchronizer."""

    def __init__(self, params: ProtocolParameters) -> None:
        self.params = params
        self.pulse_round = 0
        self.pulse_local = 0.0
        self._arrivals: Dict[int, float] = {}
        self.summaries: List[Dict[str, Any]] = []

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(self.params.S, ("pulse",))

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        kind = tag[0]
        if kind == "pulse":
            self._begin_round(api)
        elif kind == "send" and tag[1] == self.pulse_round:
            api.broadcast(LwMessage(self.pulse_round))
        elif kind == "window-end" and tag[1] == self.pulse_round:
            self._complete_round(api)

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        if not isinstance(payload, LwMessage):
            return
        if payload.pulse_round != self.pulse_round:
            return
        local = api.local_time()
        window_end = self.pulse_local + self.params.tcb_window
        in_window = (
            self.pulse_local < local <= window_end + self.params.tolerance
        )
        if in_window and sender not in self._arrivals:
            self._arrivals[sender] = local

    def _begin_round(self, api: NodeAPI) -> None:
        self.pulse_round += 1
        self.pulse_local = api.local_time()
        self._arrivals = {}
        api.pulse()
        api.set_timer(
            self.pulse_local + self.params.dealer_send_offset,
            ("send", self.pulse_round),
        )
        api.set_timer(
            self.pulse_local
            + self.params.tcb_window
            + 2.0 * self.params.tolerance,
            ("window-end", self.pulse_round),
        )

    def _complete_round(self, api: NodeAPI) -> None:
        window_end = self.pulse_local + self.params.tcb_window
        estimates: Dict[int, float] = {api.node_id: 0.0}
        for w in range(api.n):
            if w == api.node_id:
                continue
            arrival = self._arrivals.get(w, window_end)
            estimates[w] = offset_estimate(
                arrival,
                self.pulse_local,
                self.params.d,
                self.params.u,
                self.params.S,
            )
        # No ⊥ evidence without signatures: always discard f per side.
        correction, interval = midpoint_rule(
            list(estimates.values()), 0, self.params.f
        )
        self.summaries.append(
            {
                "round": self.pulse_round,
                "estimates": estimates,
                "interval": interval,
                "correction": correction,
            }
        )
        api.annotate("lw-round", self.summaries[-1])
        api.set_timer(
            self.pulse_local + correction + self.params.T, ("pulse",)
        )


class LwTimingAttack(ByzantineBehavior):
    """The classic equivocation-in-time attack Lynch-Welch cannot survive
    beyond ``f < n/3``.

    Every faulty node announces each round *twice*: immediately (arriving
    near the start of every window) to ``group_a`` and much later to the
    rest — without signatures and echoes nobody can prove the
    inconsistency.  For ``f >= n/3`` the discard rule retains different
    honest extremes at the two groups, corrections diverge, and the skew
    grows round over round.  The same behaviour pointed at CPS is caught
    by the echo rule (tests assert both).
    """

    def __init__(
        self,
        params: ProtocolParameters,
        group_a: Sequence[int],
        late_fraction: float = 0.8,
    ) -> None:
        self.params = params
        self.group_a: Set[int] = set(group_a)
        self.late_fraction = late_fraction
        self._scheduled: Set[int] = set()

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index in self._scheduled:
            return
        self._scheduled.add(index)
        ctx.wake_at(time + self.params.S, ("early", index))
        late_wait = self.late_fraction * self.params.tcb_window
        ctx.wake_at(time + self.params.S + late_wait, ("late", index))

    def on_wakeup(self, ctx, tag) -> None:
        if not isinstance(tag, tuple) or tag[0] not in ("early", "late"):
            return
        phase, pulse_round = tag
        low, high = ctx.config.delay_bounds(False)
        targets = [
            v
            for v in ctx.honest
            if (v in self.group_a) == (phase == "early")
        ]
        for src in sorted(ctx.faulty):
            for dst in targets:
                ctx.send_from(
                    src,
                    dst,
                    LwMessage(pulse_round),
                    low if phase == "early" else high,
                )

