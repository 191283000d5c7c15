"""Byzantine attack strategies specialized against TCB/CPS.

These behaviours understand the CPS message format and timing, and realize
the attack surfaces the paper's analysis is tight against:

* :class:`CpsMimicDealerAttack` — faulty dealers stay *undetected* (one
  signature, plausible timing) while skewing their apparent pulse time
  differently for different receivers, exploiting the full slack Lemma 11
  leaves them;
* :class:`CpsEquivocatingSubsetAttack` — faulty dealers address only a
  subset, producing asymmetric ⊥ patterns (the `b`-dependent discard rule
  must handle these correctly — ablation A2 shows what breaks otherwise);
* :class:`CpsRushingEchoAttack` — *only* meaningful when faulty links may
  undercut the honest minimum delay (``u_tilde > u``): faulty nodes
  re-echo honest signatures so fast that honest broadcasts get rejected,
  the attack behind the paper's Section 1 warning and Theorem 5;
* :class:`CpsCoordinatedOffsetAttack` — every faulty dealer presents the
  *same* extreme apparent offset (optionally flipping direction each
  round): where the mimic-split maximizes inconsistency between
  receivers, this maximizes the coordinated bias the ⊥-aware midpoint
  rule must absorb.

All of these are registered in the scenario registry
(:mod:`repro.scenarios`) under stable string keys, so campaign cases can
name them declaratively.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.core.messages import TcbMessage, tcb_tag
from repro.core.params import ProtocolParameters
from repro.sim.adversary import ByzantineBehavior
from repro.sim.network import DelayPolicy
from repro.sim.trace import DeliveryRecord


def timing_split_group(n: int) -> list:
    """The even-id half of the nodes, the canonical "group A".

    Timing-split attacks and partition delay policies need *some*
    bisection of the honest nodes; using the same one everywhere keeps
    grids comparable across experiments.
    """
    return [v for v in range(n) if v % 2 == 0]


class CpsMimicDealerAttack(ByzantineBehavior):
    """Faulty dealers broadcast on time, but split their apparent offset.

    On the first honest pulse of each round ``r``, every faulty node
    schedules its ``<r>`` broadcast at the time an honest dealer would use
    and delivers it *fast* (minimum faulty-link delay) to ``group_a`` and
    *slow* (maximum delay, shifted ``spread_fraction`` of the tolerated
    slack later) to everyone else.  The spread stays just inside the
    Lemma 11 consistency window, so no honest node rejects — the dealer
    contributes maximally inconsistent estimates while remaining accepted.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        group_a: Iterable[int],
        spread_fraction: float = 0.9,
        stagger: float = 0.0,
    ) -> None:
        self.params = params
        self.group_a: Set[int] = set(group_a)
        self.spread_fraction = spread_fraction
        # Extra real-time gap before the slow group's copy is sent.  With
        # the echo-rejection rule active any stagger beyond ~u gets the
        # dealer rejected; ablation A1 removes the rule and cranks this up.
        self.stagger = stagger
        self._scheduled_rounds: Set[int] = set()

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index in self._scheduled_rounds:
            return
        self._scheduled_rounds.add(index)
        # An honest dealer sends theta*S local time after its pulse, i.e.
        # between S and theta*S real time later; mimic the earliest.
        ctx.wake_at(time + self.params.S, ("mimic-send", index))

    def on_wakeup(self, ctx, tag) -> None:
        if not isinstance(tag, tuple):
            return
        if tag[0] == "mimic-send":
            pulse_round = tag[1]
            low, high = ctx.config.delay_bounds(False)
            # Keep the arrival spread a safe fraction of the uncertainty so
            # the echo-rejection guard (strict inequalities) never quite
            # triggers.
            slow_delay = low + self.spread_fraction * (high - low)
            for src in sorted(ctx.faulty):
                message = TcbMessage(
                    pulse_round, src, ctx.sign_as(src, tcb_tag(pulse_round))
                )
                for dst in ctx.honest:
                    if dst in self.group_a:
                        ctx.send_from(src, dst, message, low)
                    elif self.stagger <= 0.0:
                        ctx.send_from(src, dst, message, slow_delay)
            if self.stagger > 0.0:
                ctx.wake_at(
                    ctx.now + self.stagger, ("mimic-send-late", pulse_round)
                )
        elif tag[0] == "mimic-send-late":
            pulse_round = tag[1]
            low, high = ctx.config.delay_bounds(False)
            slow_delay = low + self.spread_fraction * (high - low)
            for src in sorted(ctx.faulty):
                message = TcbMessage(
                    pulse_round, src, ctx.sign_as(src, tcb_tag(pulse_round))
                )
                for dst in ctx.honest:
                    if dst not in self.group_a:
                        ctx.send_from(src, dst, message, slow_delay)


class CpsEquivocatingSubsetAttack(ByzantineBehavior):
    """Faulty dealers address only half the honest nodes.

    Recipients accept and echo; the excluded half sees echoes without a
    direct dealer message and outputs ⊥ (Figure 2's timeout/echo rules).
    This maximizes the *asymmetry* of ⊥ outputs across honest nodes, the
    scenario Lemmas 7/8 exist for.

    ``lateness`` delays the subset's copies by that much extra real
    time (still inside the Figure 2 acceptance window for lateness up
    to ``~S``): the addressed subset then computes a *late extreme*
    estimate the excluded half never sees.  The ⊥-aware ``f - b``
    discard absorbs the extremes; the ``apa=off`` single-shot vote
    does not, and the subsets drift apart.
    """

    def __init__(
        self, params: ProtocolParameters, lateness: float = 0.0
    ) -> None:
        self.params = params
        self.lateness = lateness
        self._scheduled_rounds: Set[int] = set()

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index in self._scheduled_rounds:
            return
        self._scheduled_rounds.add(index)
        ctx.wake_at(
            time + self.params.S + self.lateness, ("subset-send", index)
        )

    def on_wakeup(self, ctx, tag) -> None:
        if not (isinstance(tag, tuple) and tag[0] == "subset-send"):
            return
        pulse_round = tag[1]
        honest = sorted(ctx.honest)
        subset = honest[: max(len(honest) // 2, 1)]
        for src in sorted(ctx.faulty):
            message = TcbMessage(
                pulse_round, src, ctx.sign_as(src, tcb_tag(pulse_round))
            )
            ctx.broadcast_from(src, message, ctx.config.d, subset)


class CpsRushingEchoAttack(ByzantineBehavior):
    """Rush-echo honest signatures over fast faulty links.

    Whenever a faulty node receives an honest dealer's ``<r>`` message, it
    instantly re-echoes it to the configured victims at the minimum
    faulty-link delay ``d - u_tilde``.  If ``u_tilde > u`` (faulty links
    faster than honest ones), the echo can reach a victim more than
    ``d - 2u`` before the victim's own acceptance would finalize, forcing
    the victim to reject the *honest* dealer.

    With ``u_tilde = u`` the attack is harmless (Lemma 10 holds); the gap
    is exactly the paper's "network designers must ensure message delay is
    at least d - u even on links with one faulty endpoint".
    """

    def __init__(
        self,
        victims: Optional[Iterable[int]] = None,
        target_dealers: Optional[Iterable[int]] = None,
    ) -> None:
        self.victims = None if victims is None else set(victims)
        self.target_dealers = (
            None if target_dealers is None else set(target_dealers)
        )
        self._echoed: Set[Tuple[int, int]] = set()

    def on_deliver(self, ctx, record: DeliveryRecord) -> None:
        payload = record.payload
        if not isinstance(payload, TcbMessage):
            return
        if payload.dealer in ctx.faulty:
            return
        if (
            self.target_dealers is not None
            and payload.dealer not in self.target_dealers
        ):
            return
        key = (payload.pulse_round, payload.dealer)
        if key in self._echoed:
            return
        self._echoed.add(key)
        low, _high = ctx.config.delay_bounds(False)
        victims = ctx.honest if self.victims is None else sorted(self.victims)
        src = record.dst  # the faulty node that just learned the signature
        for dst in victims:
            if dst != payload.dealer:
                ctx.send_from(src, dst, payload, low)


class FastToFaultyDelayPolicy(DelayPolicy):
    """Delay policy partnering the rushing-echo attack.

    Honest-to-honest messages take the maximum delay ``d`` (so direct
    dealer messages arrive as late as possible) while anything touching a
    faulty node takes the minimum faulty-link delay (so the adversary
    learns signatures as early as the model permits).
    """

    def slow(self, src_in, dst_in, send_time, link_is_honest):
        return link_is_honest

    def describe(self) -> str:
        return "fast-to-faulty"


class CpsCoordinatedOffsetAttack(ByzantineBehavior):
    """All faulty dealers present one coordinated extreme apparent offset.

    Every faulty node broadcasts its ``<r>`` message at the time an
    honest dealer would and delivers it to *every* honest node with the
    same delay, pinned ``offset_fraction`` of the way into the
    admissible window.  Because all copies of a dealer's message arrive
    with identical delay, honest receivers compute mutually consistent
    estimates and never reject (Lemma 11's guard sees nothing wrong) —
    but all ``f`` faulty estimates sit at the same extreme, so the
    ⊥-aware midpoint of Figure 3 is dragged coherently instead of being
    split.

    With ``alternate=True`` the extreme flips every pulse round,
    rocking the correction instead of pushing it steadily — the
    oscillating variant stresses the Lemma 16 contraction rather than
    the steady-state bias.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        offset_fraction: float = 1.0,
        alternate: bool = True,
    ) -> None:
        if not 0.0 <= offset_fraction <= 1.0:
            raise ValueError(
                f"offset_fraction must lie in [0, 1], "
                f"got {offset_fraction}"
            )
        self.params = params
        self.offset_fraction = offset_fraction
        self.alternate = alternate
        self._scheduled_rounds: Set[int] = set()

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index in self._scheduled_rounds:
            return
        self._scheduled_rounds.add(index)
        ctx.wake_at(time + self.params.S, ("coordinated-send", index))

    def on_wakeup(self, ctx, tag) -> None:
        if not (isinstance(tag, tuple) and tag[0] == "coordinated-send"):
            return
        pulse_round = tag[1]
        low, high = ctx.config.delay_bounds(False)
        push_late = self.alternate and pulse_round % 2 == 1
        span = high - low
        if push_late:
            delay = high - (1.0 - self.offset_fraction) * span
        else:
            delay = low + (1.0 - self.offset_fraction) * span
        for src in sorted(ctx.faulty):
            message = TcbMessage(
                pulse_round, src, ctx.sign_as(src, tcb_tag(pulse_round))
            )
            ctx.broadcast_from(src, message, delay, ctx.honest)


class CpsEarlyExtremeAttack(ByzantineBehavior):
    """Predictively timed broadcasts that land just after each pulse.

    An ``<r>`` message accepted a *small* local-time gap after the
    receiver's pulse decodes (Lemma 12) to an extreme negative offset
    estimate ``≈ -(d + S)`` — the dealer looks almost a full delay
    bound *ahead*.  Honest dealers can never produce such an arrival
    (their broadcasts travel a real delay in ``[d-u, d]``), so the only
    way to land there is to *send before the receiver's pulse*: the
    attack observes each round's first honest pulse, extrapolates the
    next round's pulse times by the nominal period ``T``, and times one
    broadcast per faulty dealer to arrive ``margin`` after the
    predicted first pulse — inside every acceptance window, near its
    origin.

    Only the even-id half of the honest nodes is addressed, so the
    drag is *asymmetric*: the addressed half is yanked a half-delay
    early every round while the excluded half (which just times the
    dealer out to ⊥) keeps the nominal period.  All delivered copies
    arrive at one real instant, so acceptances are mutually consistent
    (Lemma 11 sees nothing) and no echo-rejection fires.  The defense
    is the APA vote itself: with ``b = 0`` the ``f - b`` discard drops
    exactly these ``f`` coordinated extremes, and with ``b = f`` the
    excluded half discards nothing it needs to.  The ``apa=off``
    single-shot vote averages the extremes in, and the two halves
    drift apart.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        margin: Optional[float] = None,
    ) -> None:
        self.params = params
        # Arrival lands this much real time after the predicted first
        # pulse of the round: > S so every honest node has pulsed, yet
        # far below d so the estimate stays extreme.
        self.margin = 2.0 * params.S if margin is None else margin
        self._seen_rounds: Set[int] = set()

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index in self._seen_rounds:
            return
        self._seen_rounds.add(index)
        low, _high = ctx.config.delay_bounds(False)
        wake = time + self.params.T + self.margin - low
        if wake > ctx.now:
            ctx.wake_at(wake, ("early-send", index + 1))

    def on_wakeup(self, ctx, tag) -> None:
        if not (isinstance(tag, tuple) and tag[0] == "early-send"):
            return
        pulse_round = tag[1]
        low, _high = ctx.config.delay_bounds(False)
        targets = [v for v in ctx.honest if v % 2 == 0]
        for src in sorted(ctx.faulty):
            message = TcbMessage(
                pulse_round, src, ctx.sign_as(src, tcb_tag(pulse_round))
            )
            ctx.broadcast_from(src, message, low, targets)


class CpsForgingImpersonatorAttack(ByzantineBehavior):
    """Forge ``<r>`` messages in honest dealers' names.

    Every faulty node signs ``<r>`` with its *own* key but claims an
    honest dealer as the sender, delivering the forgery to every honest
    receiver at the minimum delay around the time real round-``r``
    traffic flows.  Under the paper's model this is the canonical
    no-op: :meth:`TcbMessage.is_valid` verifies the signature against
    the claimed dealer, so honest nodes drop the forgery on arrival
    (and the simulator's knowledge guard is satisfied, because the
    payload carries only the forger's own signature).

    With signature verification ablated (``signatures=off`` — the
    trust-all verify), the forgery lands as an *echo* (sender is not
    the claimed dealer) inside the Figure 2 guard interval, so the
    echo-rejection rule forces honest receivers to ⊥ the *honest*
    dealer — which is precisely why the construction needs signatures
    at all (Theorem 5's unforgeability assumption).
    """

    def __init__(
        self,
        params: ProtocolParameters,
        rounds: Optional[int] = None,
    ) -> None:
        self.params = params
        # None = forge every round; an int bounds the attack's length.
        self.rounds = rounds
        self._scheduled_rounds: Set[int] = set()

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index in self._scheduled_rounds:
            return
        if self.rounds is not None and index > self.rounds:
            return
        self._scheduled_rounds.add(index)
        # Launch alongside the honest dealer broadcasts: the forgery
        # must arrive inside the victims' acceptance windows, early
        # enough to precede each real acceptance's finalize deadline.
        ctx.wake_at(time + self.params.S, ("forge-send", index))

    def on_wakeup(self, ctx, tag) -> None:
        if not (isinstance(tag, tuple) and tag[0] == "forge-send"):
            return
        pulse_round = tag[1]
        low, _high = ctx.config.delay_bounds(False)
        for src in sorted(ctx.faulty):
            signature = ctx.sign_as(src, tcb_tag(pulse_round))
            for victim in ctx.honest:
                forged = TcbMessage(pulse_round, victim, signature)
                ctx.broadcast_from(
                    src, forged, low, [v for v in ctx.honest if v != victim]
                )
