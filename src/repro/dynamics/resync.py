"""Passive-resynchronization wrapper for recovering / late-joining nodes.

Algorithm CPS has no join step: a node restarted cold would pulse at an
arbitrary phase, its TCB windows would never overlap the cohort's, and —
with periods nominally equal across nodes — the offset would persist
forever.  :class:`ResyncProtocol` adds the minimal join rule the model
admits:

1. **Listen** for one full round (slightly more than ``P_max`` plus the
   dealer send offset and the maximum delay), collecting the *direct*
   dealer messages of other nodes.  A dealer ``w`` sends ``<r>_w`` at
   local time ``H_w(p_w) + theta S``, so an arrival at local time ``a``
   implies ``w``'s *next* pulse is near ``a + T - theta S - d`` (up to
   the delay uncertainty ``u``, drift over one round, and ``w``'s own
   midpoint correction — each ``O(S)``).
2. **Vote**: take the median of the per-dealer estimates (each rolled
   forward by whole nominal periods until it clears the listen
   deadline).  At most ``f`` of the senders are Byzantine and honest
   senders form a majority among dealers heard, so the median lands
   inside the honest envelope.  The vote carries the *round number*
   along with the phase: TCB instances are tagged ``<r>_w``, so a
   rejoiner must adopt the cohort's numbering or every message would be
   discarded as a round mismatch.
3. **Hand off** to a fresh inner protocol instance whose first pulse is
   scheduled at the voted local time; from then on the wrapper is a
   transparent proxy and ordinary CPS midpoint corrections contract the
   residual offset per Lemma 16.

The wrapper is engine-agnostic (a :class:`~repro.sim.runtime
.TimedProtocol`), fully deterministic, and never sends before handoff —
a recovering node cannot perturb the cohort while it is still blind.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.messages import TcbMessage
from repro.core.params import ProtocolParameters
from repro.sim.runtime import NodeAPI, TimedProtocol

#: Timer tag of the listen-phase deadline.
LISTEN_TAG = "resync-listen"


class ResyncProtocol(TimedProtocol):
    """Listen-then-join wrapper around a cold protocol instance.

    Parameters
    ----------
    params:
        The deployment's :class:`ProtocolParameters` (timing constants
        of the phase estimate).
    inner_factory:
        Builds the protocol instance to hand off to.  If the instance
        exposes a ``start_local`` attribute (as
        :class:`~repro.core.cps.CpsNode` does) the voted pulse time is
        injected before ``on_start``; otherwise the inner protocol
        starts with its own default phase.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        inner_factory: Callable[[], TimedProtocol],
    ) -> None:
        self.params = params
        self.inner_factory = inner_factory
        self.inner: Optional[TimedProtocol] = None
        #: dealer id -> (next-pulse estimate in local time, its round).
        self._estimates: Dict[int, Tuple[float, int]] = {}
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # Phase arithmetic

    def _listen_window(self) -> float:
        """Local-time budget guaranteeing one dealer message per active
        dealer: a full maximum period plus the send offset and delay."""
        p = self.params
        return p.theta * (p.p_max_bound + p.dealer_send_offset + p.d)

    def _phase_shift(self) -> float:
        """Arrival-to-next-pulse offset: ``T - theta S - d``."""
        p = self.params
        return p.T - p.dealer_send_offset - p.d

    # ------------------------------------------------------------------
    # TimedProtocol interface

    def on_start(self, api: NodeAPI) -> None:
        self._deadline = api.local_time() + self._listen_window()
        # The deadline doubles as an incarnation nonce: a listen timer
        # set by an earlier wrapper (set before a crash that preceded
        # this restart) carries a strictly smaller deadline and is
        # ignored — without it, a node flapping faster than one listen
        # window would hand off early on the stale timer with a
        # truncated estimate set and never re-stabilize.
        api.set_timer(self._deadline, (LISTEN_TAG, self._deadline))

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        if self.inner is not None:
            self.inner.on_message(api, sender, payload)
            return
        if (
            isinstance(payload, TcbMessage)
            and sender == payload.dealer
            and payload.is_valid()
        ):
            # Direct dealer message for round r: the sender's next pulse
            # (round r + 1) is one phase shift away.  The freshest round
            # wins per dealer.
            self._estimates[sender] = (
                api.local_time() + self._phase_shift(),
                payload.pulse_round + 1,
            )

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        if self.inner is not None:
            self.inner.on_timer(api, tag)
            return
        if not (isinstance(tag, tuple) and tag and tag[0] == LISTEN_TAG):
            return  # stale pre-crash timer from an earlier incarnation
        if len(tag) < 2 or tag[1] != self._deadline:
            return  # an earlier incarnation's listen deadline
        self._hand_off(api)

    # ------------------------------------------------------------------
    # Handoff

    def _hand_off(self, api: NodeAPI) -> None:
        now = api.local_time()
        # Clear the dealer-send offset so the inner node's first round
        # has room to schedule its own dealer broadcast.
        margin = self.params.dealer_send_offset
        targets = []
        for estimate, pulse_round in self._estimates.values():
            while estimate <= now + margin:
                estimate += self.params.T
                pulse_round += 1
            targets.append((estimate, pulse_round))
        if targets:
            targets.sort()
            target, target_round = targets[len(targets) // 2]
        else:
            # Nobody audible (cohort down?): start blind one round out.
            target, target_round = now + self.params.T, None
        inner = self.inner_factory()
        if hasattr(inner, "start_local"):
            inner.start_local = target
        if target_round is not None and hasattr(inner, "start_round"):
            inner.start_round = target_round
        self.inner = inner
        inner.on_start(api)
