"""A Srikanth-Toueg-style signed-relay pulser ([28]/[21]/[2]-family).

The classic way to reach resilience ``ceil(n/2) - 1`` with signatures:
each node signs a ``ready`` message when its clock says the round is due,
and *accepts* the round (pulses) as soon as it holds ``f + 1`` valid
``ready`` signatures from distinct signers — at least one of which is
honest, so rounds cannot be triggered arbitrarily early.  Upon acceptance
the node relays the whole signature bundle, pulling everyone else across
the threshold within one message delay.

The skew is therefore Θ(d): an honest node can pulse up to a full maximum
delay after the first one (plus drift terms), regardless of how small the
uncertainty ``u`` is.  This is exactly the baseline the paper's
introduction calls out ("these algorithms have skew Θ(d) >> u"); CPS's
whole contribution is replacing this one-shot threshold trigger with a
measured approximate-agreement step to get skew ``Θ(u + (theta-1) d)``.

:func:`build_st_simulation` runs it on CPS's wiring,
``assemble_cps_simulation(..., node=SrikanthTouegNode)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.core.cps import assemble_cps_simulation, wandering_clocks
from repro.crypto.signatures import Signature, verify
from repro.sim.adversary import ByzantineBehavior
from repro.sim.clocks import HardwareClock
from repro.sim.errors import ConfigurationError
from repro.sim.network import DelayPolicy
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation


def st_tag(pulse_round: int) -> Tuple[str, int]:
    """What a node signs to vouch that round ``pulse_round`` is due."""
    return ("st-ready", pulse_round)


@dataclass(frozen=True)
class StReady:
    """A single signed ``ready`` vote."""

    pulse_round: int
    signature: Signature

    def signatures(self) -> Tuple[Signature, ...]:
        return (self.signature,)


@dataclass(frozen=True)
class StBundle:
    """An acceptance proof: ``f + 1`` distinct ``ready`` signatures."""

    pulse_round: int
    bundle: Tuple[Signature, ...]

    def signatures(self) -> Tuple[Signature, ...]:
        return self.bundle


@dataclass(frozen=True)
class StParameters:
    """Timing for the signed-relay pulser.

    ``period`` is the local time between a pulse and the next round
    becoming due; it must exceed the worst-case catch-up lag
    (``theta * (d + S)``) for liveness.  ``S`` bounds the initial
    clock offsets, ``H_v(0) in [0, S]``, as CPS's ``S`` does.
    """

    n: int
    f: int
    theta: float
    d: float
    u: float
    period: float
    S: float

    def __post_init__(self) -> None:
        import math

        if self.theta < 1.0:
            raise ConfigurationError(f"theta must be >= 1, got {self.theta}")
        if self.f > math.ceil(self.n / 2) - 1:
            raise ConfigurationError(
                f"signed-relay pulser needs f <= ceil(n/2)-1, got "
                f"f={self.f}, n={self.n}"
            )
        floor = self.theta * (self.d + self.S) * 2.0
        if self.period < floor:
            raise ConfigurationError(
                f"period {self.period} below liveness floor {floor}"
            )

    @property
    def skew_bound(self) -> float:
        """One relay delay plus processing slack: Θ(d)."""
        return self.d


def derive_st_parameters(
    theta: float,
    d: float,
    u: float,
    n: int,
    f: Optional[int] = None,
    S: Optional[float] = None,
) -> StParameters:
    """Reasonable defaults: period at twice the liveness floor."""
    import math

    if f is None:
        f = math.ceil(n / 2) - 1
    if S is None:
        S = d
    period = 4.0 * theta * (d + S)
    return StParameters(n, f, theta, d, u, period, S)


class SrikanthTouegNode(TimedProtocol):
    """One honest node of the signed-relay pulser."""

    def __init__(self, params: StParameters) -> None:
        self.params = params
        self.accepted_round = 0
        self._sent_ready: Set[int] = set()
        self._votes: Dict[int, Dict[int, Signature]] = {}

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(self.params.S + self.params.period, ("due", 1))

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        kind, pulse_round = tag
        if kind != "due" or pulse_round != self.accepted_round + 1:
            return
        self._send_ready(api, pulse_round)
        self._try_accept(api, pulse_round)

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        if isinstance(payload, StReady):
            self._add_vote(payload.pulse_round, payload.signature)
        elif isinstance(payload, StBundle):
            for signature in payload.bundle:
                self._add_vote(payload.pulse_round, signature)
        else:
            return
        self._try_accept(api, self.accepted_round + 1)

    # ------------------------------------------------------------------

    def _add_vote(self, pulse_round: int, signature: Signature) -> None:
        if pulse_round <= self.accepted_round:
            return
        if not verify(signature, signature.signer, st_tag(pulse_round)):
            return
        self._votes.setdefault(pulse_round, {})[signature.signer] = signature

    def _send_ready(self, api: NodeAPI, pulse_round: int) -> None:
        if pulse_round in self._sent_ready:
            return
        self._sent_ready.add(pulse_round)
        signature = api.sign(st_tag(pulse_round))
        self._add_vote(pulse_round, signature)
        api.broadcast(StReady(pulse_round, signature))

    def _try_accept(self, api: NodeAPI, pulse_round: int) -> None:
        votes = self._votes.get(pulse_round, {})
        if len(votes) < self.params.f + 1:
            return
        # Accept: pulse, relay the proof, join the vote, arm the next round.
        self.accepted_round = pulse_round
        api.pulse()
        bundle = tuple(
            signature
            for _, signature in sorted(votes.items())[: self.params.f + 1]
        )
        api.broadcast(StBundle(pulse_round, bundle))
        self._send_ready(api, pulse_round)  # helps stragglers' counts
        api.set_timer(
            api.local_time() + self.params.period,
            ("due", pulse_round + 1),
        )
        self._votes.pop(pulse_round, None)
        # Votes for the next round may already be buffered.
        self._try_accept(api, pulse_round + 1)


class StRushAttack(ByzantineBehavior):
    """Faulty nodes vote for every round as early as they can.

    With ``f`` faulty signatures pre-staged, a round fires as soon as the
    *first* honest node believes it is due — the adversary maximally
    advances pulses and stretches the gap to the last honest node toward
    the full Θ(d) bound.
    """

    def __init__(self, params: StParameters) -> None:
        self.params = params
        self._voted: Set[int] = set()

    def on_start(self, ctx) -> None:
        ctx.wake_at(0.0, ("st-vote", 1))

    def on_pulse(self, ctx, node: int, index: int, time: float) -> None:
        if index + 1 not in self._voted:
            ctx.wake_at(time, ("st-vote", index + 1))

    def on_wakeup(self, ctx, tag) -> None:
        if not (isinstance(tag, tuple) and tag[0] == "st-vote"):
            return
        pulse_round = tag[1]
        if pulse_round in self._voted:
            return
        self._voted.add(pulse_round)
        low, _high = ctx.config.delay_bounds(False)
        for src in sorted(ctx.faulty):
            signature = ctx.sign_as(src, st_tag(pulse_round))
            for dst in ctx.honest:
                ctx.send_from(src, dst, StReady(pulse_round, signature), low)


def build_st_simulation(
    params: StParameters,
    clocks: Optional[Sequence[HardwareClock]] = None,
    faulty: Sequence[int] = (),
    behavior=None,
    delay_policy: Optional[DelayPolicy] = None,
    seed: int = 0,
    trace: str = "full",
) -> Simulation:
    """Wire a ready-to-run signed-relay pulser simulation.  The
    default clocks are CPS's wandering draw, one rate a period for 100
    periods."""
    if clocks is None:
        schedule = (100.0 * params.period, params.period)
        clocks = wandering_clocks(params, seed, [None] * params.n, schedule)
    return assemble_cps_simulation(
        params,
        clocks,
        faulty,
        behavior,
        delay_policy,
        seed=seed,
        trace=trace,
        node=SrikanthTouegNode,
    )
