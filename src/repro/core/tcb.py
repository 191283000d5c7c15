"""Algorithm TCB (Figure 2): timed crusader broadcast — per-dealer state.

From the view of non-dealer ``v`` participating in ``TCB_r`` with dealer
``u`` (all times are ``v``'s local times; ``P = H_v(p^r_v)`` is ``v``'s
pulse time):

* accept the first valid ``<r>_u`` received *from u* at a local time
  ``h`` in the open window ``(P, P + theta (d + (theta+1) S))``; if none
  arrives, output ⊥ at the window's end;
* upon acceptance, immediately forward (echo) ``<r>_u`` to all nodes;
* if a valid ``<r>_u`` is received from some *other* node ``z != u`` at a
  local time ``h'`` in ``(P, h + d - 2u)``, output ⊥ — the echo proves
  that someone plausibly received the dealer's broadcast too much earlier
  than we did;
* otherwise output ``h`` at local time ``h + d - 2u``.

The class below is a passive state machine: the enclosing protocol node
(:class:`~repro.core.cps.CpsNode`) feeds it receptions and timer
expirations and performs the sends/timer registrations it requests.
Keeping it passive makes it directly unit-testable and reusable (the
Lynch-Welch baseline uses a degenerate configuration of the same machine).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.params import RELATIVE_TOLERANCE
from repro.sync.crusader import BOT


class TcbState(enum.Enum):
    """Lifecycle of one instance at one receiver."""

    WAITING = "waiting"          # no direct dealer message accepted yet
    ACCEPTED = "accepted"        # accepted at local time h; finalize pending
    DONE = "done"                # output fixed (a local time, or BOT)


@dataclass(frozen=True)
class TcbActions:
    """What the enclosing node must do after feeding an event."""

    echo: bool = False                      # forward <r>_u to all nodes now
    set_finalize_timer: Optional[float] = None  # local time for finalize


#: The feeds' shared "nothing to do" (most echoes): frozen, so one
#: instance serves every call.
_NOTHING = TcbActions()


@dataclass(slots=True)
class TcbInstance:
    """One receiver-side instance of TCB for (pulse_round, dealer).

    Parameters
    ----------
    pulse_local:
        ``H_v(p^r_v)`` — the receiver's local pulse time (window origin).
    window:
        Local-time length of the acceptance window,
        ``theta (d + (theta+1) S)``.
    finalize_wait:
        Local-time gap between acceptance and output, ``d - 2u``.
    echo_rejection:
        Ablation hook (A1): when False, echoes never cause ⊥.
    window_filter:
        Ablation hook (``tcb-filter``): when False the acceptance
        window stops filtering — direct dealer messages are accepted at
        *any* local time, and the window-end timeout no longer resolves
        a silent dealer's instance to ⊥ (the instance simply stays
        WAITING forever).  This is the paper-true cost of removing the
        window: per-round termination is exactly what it buys.
    tolerance:
        ``ProtocolParameters.tolerance``: how close counts as equal.
    """

    dealer: int
    pulse_round: int
    pulse_local: float
    window: float
    finalize_wait: float
    echo_rejection: bool = True
    window_filter: bool = True
    tolerance: float = RELATIVE_TOLERANCE
    state: TcbState = TcbState.WAITING
    accept_local: Optional[float] = None
    earliest_echo: Optional[float] = None
    output: object = field(default=None)
    reject_reason: Optional[str] = None

    @property
    def window_end(self) -> float:
        return self.pulse_local + self.window

    # ------------------------------------------------------------------
    # Event feeds (all return the actions the caller must perform)

    def on_direct(self, local_time: float) -> TcbActions:
        """A valid ``<r>_u`` arrived from the dealer itself."""
        if self.state is not TcbState.WAITING:
            return _NOTHING
        if self.window_filter and not (
            self.pulse_local < local_time <= self.window_end + self.tolerance
        ):
            # Outside the acceptance window: ignored.  (A too-early message
            # cannot be accepted later; the dealer would have to send again
            # — only a faulty dealer would.)  The closing boundary is
            # treated as inclusive: Lemma 10 proves arrival *at most* at
            # the window bound, and the worst case (slowest admissible
            # dealer, fastest receiver, maximal delay, maximal skew) hits
            # the bound exactly.
            return _NOTHING
        self.accept_local = local_time
        self.state = TcbState.ACCEPTED
        deadline = local_time + self.finalize_wait
        if (
            self.echo_rejection
            and self.earliest_echo is not None
            and self.earliest_echo < deadline - self.tolerance
        ):
            self._reject("echo-before-acceptance")
            return TcbActions(echo=True)
        return TcbActions(True, deadline)

    def on_echo(self, local_time: float) -> TcbActions:
        """A valid ``<r>_u`` arrived from some node other than the dealer."""
        if self.state is TcbState.DONE:
            return _NOTHING
        if local_time <= self.pulse_local + self.tolerance:
            # Strictly before (or at) the window origin: outside the open
            # rejection interval, ignored.
            return _NOTHING
        if self.earliest_echo is None or local_time < self.earliest_echo:
            self.earliest_echo = local_time
        if (
            self.echo_rejection
            and self.state is TcbState.ACCEPTED
            and self.accept_local is not None
            and local_time
            < self.accept_local + self.finalize_wait - self.tolerance
        ):
            self._reject("echo-within-guard")
        return _NOTHING

    def on_window_end(self) -> TcbActions:
        """The acceptance window elapsed."""
        if self.state is TcbState.WAITING and self.window_filter:
            self.state = TcbState.DONE
            self.output = BOT
            self.reject_reason = "timeout"
        return _NOTHING

    def on_finalize(self) -> TcbActions:
        """Local time reached ``h + d - 2u`` after an acceptance."""
        if self.state is TcbState.ACCEPTED:
            self.state = TcbState.DONE
            self.output = self.accept_local
        return _NOTHING

    # ------------------------------------------------------------------

    def _reject(self, reason: str) -> None:
        self.state = TcbState.DONE
        self.output = BOT
        self.reject_reason = reason


def offset_estimate(
    accept_local: float,
    pulse_local: float,
    d: float,
    u: float,
    s_bound: float,
) -> float:
    """Algorithm CPS's estimate ``Delta^r_{v,u}`` from a TCB output.

    ``Delta = h - H_v(p^r_v) - d + u - S``; Lemma 12 shows
    ``Delta in [p_u - p_v, p_u - p_v + delta)`` for honest dealers.
    """
    return accept_local - pulse_local - d + u - s_bound
