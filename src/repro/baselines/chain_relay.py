"""A chain-relay pulser: the consensus-style baseline with Θ(f·(u+(θ-1)d))
skew.

The paper cites a signature-based construction (via consensus, as in
Abraham et al. [2]) achieving optimal resilience with skew
``O(n (u + (theta-1) d))``.  The linear factor has a concrete mechanism:
timing information is accepted through *signature chains* of up to
``f + 1`` hops (Dolev-Strong style), and every hop launders one link's
uncertainty into the accepted time.

This module implements that mechanism directly:

* at local due time a node *originates* round ``r``: it records "round r
  originated now", broadcasts the chain ``<r>_v``, and schedules its pulse;
* a node receiving a valid chain of length ``k`` (distinct signers) infers
  the origination time as ``k`` nominal delays ago, *sanity-checks* the
  inferred origin against its own due time (each hop is allowed one hop's
  worth of slack — without this window the adversary could teleport the
  origin arbitrarily), adopts the earliest origin estimate, appends its
  signature and relays (chains stay <= f + 1 long);
* every node pulses at local time ``origin_estimate + (f + 1) * theta * d``
  — late enough that even an estimate formed from a full-length chain is
  still in the future.

Honest estimates of the same origination differ by up to
``(u + (theta-1) d)`` *per hop*, and the adversary can stretch chains to
length ``f + 1``, so the skew is Θ(f (u + (theta-1) d)) — reproduced by
experiment E6 as the linear-in-n column between Θ(d) relays and CPS.

In every committed run each node reaches its own due time before the
first chain arrives, so nobody relays: E6 measures adoption of origins
from one-hop chains, and only a unit test drives the relay branch.
:func:`build_chain_simulation` runs it on CPS's wiring,
``assemble_cps_simulation(..., node=ChainRelayNode)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.core.cps import assemble_cps_simulation, wandering_clocks
from repro.core.params import time_tolerance
from repro.crypto.signatures import Signature, verify
from repro.sim.adversary import ByzantineBehavior
from repro.sim.clocks import HardwareClock
from repro.sim.errors import ConfigurationError
from repro.sim.network import DelayPolicy
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation
from repro.sim.trace import DeliveryRecord


def chain_tag(pulse_round: int) -> Tuple[str, int]:
    """What every signer of a round-``r`` chain signs."""
    return ("chain", pulse_round)


@dataclass(frozen=True)
class ChainMessage:
    """A signature chain vouching for round ``pulse_round``."""

    pulse_round: int
    chain: Tuple[Signature, ...]

    def signatures(self) -> Tuple[Signature, ...]:
        return self.chain

    def is_valid(self, max_length: int) -> bool:
        if not 1 <= len(self.chain) <= max_length:
            return False
        signers = [sig.signer for sig in self.chain]
        if len(set(signers)) != len(signers):
            return False
        tag = chain_tag(self.pulse_round)
        return all(verify(sig, sig.signer, tag) for sig in self.chain)


@dataclass(frozen=True)
class ChainParameters:
    """Timing for the chain-relay pulser; ``S`` bounds the initial
    clock offsets, ``H_v(0) in [0, S]``."""

    n: int
    f: int
    theta: float
    d: float
    u: float
    period: float
    S: float

    def __post_init__(self) -> None:
        if self.theta < 1.0:
            raise ConfigurationError(f"theta must be >= 1, got {self.theta}")
        if self.f > math.ceil(self.n / 2) - 1:
            raise ConfigurationError(
                f"chain pulser needs f <= ceil(n/2)-1, got f={self.f}"
            )
        if self.period <= self.pulse_delay * self.theta * 2.0:
            raise ConfigurationError(
                f"period {self.period} too small for pulse delay "
                f"{self.pulse_delay}"
            )

    @property
    def hop_slack(self) -> float:
        """Per-hop timing slack the window check allows: one link's worth
        of uncertainty plus drift over one delay."""
        return self.u + (self.theta - 1.0) * self.d

    @property
    def pulse_delay(self) -> float:
        """Local wait between inferred origin and the pulse."""
        return (self.f + 1.0) * self.theta * self.d

    @property
    def drift_per_period(self) -> float:
        """Worst-case clock divergence accumulated over one period."""
        return (self.theta - 1.0) * self.period

    def margin(self, hops: int, pulse_round: int) -> float:
        """Plausibility window half-width for a ``hops``-long chain.

        Each hop may legitimately contribute one hop's slack; on top sit
        the drift over a period and the current pulse spread (the initial
        offset bound in round 1, the steady-state bound afterwards).
        """
        base = self.S if pulse_round <= 1 else self.skew_bound
        return (hops + 1) * self.hop_slack + self.drift_per_period + base

    @property
    def skew_bound(self) -> float:
        """Θ(f (u + (theta-1) d)): the adversary can shift an accepted
        origin by up to a full-length chain's accumulated slack."""
        return (
            (self.f + 2.0) * 2.0 * self.hop_slack
            + 2.0 * self.drift_per_period
            + self.u
        )


def derive_chain_parameters(
    theta: float,
    d: float,
    u: float,
    n: int,
    f: Optional[int] = None,
    S: Optional[float] = None,
) -> ChainParameters:
    """Defaults with a comfortably feasible period."""
    if f is None:
        f = math.ceil(n / 2) - 1
    if S is None:
        S = d
    period = 4.0 * theta * (f + 2.0) * theta * d + 4.0 * S
    return ChainParameters(n, f, theta, d, u, period, S)


class ChainRelayNode(TimedProtocol):
    """One honest node of the chain-relay pulser."""

    def __init__(self, params: ChainParameters) -> None:
        self.params = params
        self.current_round = 0
        self._due_local: Dict[int, float] = {}
        self._origin_estimate: Dict[int, float] = {}
        self._relayed: Set[int] = set()
        self._pulsed: Set[int] = set()

    def on_start(self, api: NodeAPI) -> None:
        due = self.params.S + self.params.period
        self._due_local[1] = due
        api.set_timer(due, ("due", 1))

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        kind, pulse_round = tag[0], tag[1]
        if kind == "due":
            self._originate(api, pulse_round)
        elif kind == "pulse":
            self._pulse(api, pulse_round)

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        if not isinstance(payload, ChainMessage):
            return
        pulse_round = payload.pulse_round
        if pulse_round in self._pulsed:
            return
        if not payload.is_valid(self.params.f + 1):
            return
        hops = len(payload.chain)
        local = api.local_time()
        inferred_origin = local - hops * self.params.d
        due = self._due_local.get(pulse_round)
        if due is None:
            # Round not yet armed locally (we are behind): derive the due
            # time we would have used; conservative fallback is the origin.
            due = inferred_origin
            self._due_local[pulse_round] = due
        # Plausibility window: each hop may account for at most one hop's
        # slack.  Outside -> the chain's implied timing is forged.
        if abs(inferred_origin - due) > self.params.margin(
            hops, pulse_round
        ):
            return
        self._adopt(api, pulse_round, inferred_origin)
        if pulse_round not in self._relayed and hops <= self.params.f:
            self._relayed.add(pulse_round)
            own = api.sign(chain_tag(pulse_round))
            api.broadcast(
                ChainMessage(pulse_round, payload.chain + (own,))
            )

    # ------------------------------------------------------------------

    def _originate(self, api: NodeAPI, pulse_round: int) -> None:
        if pulse_round in self._pulsed:
            return
        local = api.local_time()
        self._adopt(api, pulse_round, local)
        if pulse_round not in self._relayed:
            self._relayed.add(pulse_round)
            own = api.sign(chain_tag(pulse_round))
            api.broadcast(ChainMessage(pulse_round, (own,)))

    def _adopt(self, api: NodeAPI, pulse_round: int, origin: float) -> None:
        known = self._origin_estimate.get(pulse_round)
        if known is not None and known <= origin:
            return
        self._origin_estimate[pulse_round] = origin
        api.set_timer(
            origin + self.params.pulse_delay, ("pulse", pulse_round)
        )

    def _pulse(self, api: NodeAPI, pulse_round: int) -> None:
        if pulse_round in self._pulsed:
            return
        origin = self._origin_estimate.get(pulse_round)
        target = origin + self.params.pulse_delay
        if api.local_time() < target - time_tolerance(self.params.d):
            return  # superseded by an earlier adopted origin
        self._pulsed.add(pulse_round)
        api.pulse()
        due = target + self.params.period
        self._due_local[pulse_round + 1] = due
        api.set_timer(due, ("due", pulse_round + 1))


class ChainStretchAttack(ByzantineBehavior):
    """Builds maximal chains aimed just inside the plausibility window.

    On learning the first honest signature for a round, the adversary
    appends all ``f`` faulty signatures (chain length ``f + 1``) and holds
    the chain until delivering it makes half the honest nodes infer an
    origin about ``(f + 2)`` hop-slacks *earlier* than the true one — the
    largest shift the per-hop window check tolerates.  Signature chains
    prove authorization, not timing, so nothing in the protocol can
    detect the hold-and-release.  The victims pulse early by the shift;
    the pulse spread grows linearly with ``f``:
    the Θ(n (u + (θ-1) d)) behaviour the paper quotes for [2]-style
    constructions.
    """

    def __init__(self, params: ChainParameters) -> None:
        self.params = params
        self._done: Set[int] = set()

    def on_deliver(self, ctx, record: DeliveryRecord) -> None:
        payload = record.payload
        if not isinstance(payload, ChainMessage):
            return
        pulse_round = payload.pulse_round
        if pulse_round in self._done:
            return
        if not payload.is_valid(self.params.f + 1):
            return
        if payload.chain[0].signer in ctx.faulty:
            return
        self._done.add(pulse_round)
        chain = list(payload.chain[:1])
        for faulty_id in sorted(ctx.faulty):
            if len(chain) >= self.params.f + 1:
                break
            chain.append(ctx.sign_as(faulty_id, chain_tag(pulse_round)))
        hops = len(chain)
        low, _high = ctx.config.delay_bounds(False)
        # The originator sent at ~(now - (d - u_tilde)); make the victims'
        # inferred origin land `shift` before the true origination, where
        # shift stays inside the per-hop window for every round.
        origin = ctx.now - low
        shift = (hops + 1) * self.params.hop_slack
        target_send = origin + hops * self.params.d - shift - low
        message = ChainMessage(pulse_round, tuple(chain))
        ctx.wake_at(
            max(target_send, ctx.now),
            ("chain-release", pulse_round, message),
        )

    def on_wakeup(self, ctx, tag) -> None:
        if not (isinstance(tag, tuple) and tag[0] == "chain-release"):
            return
        _kind, _pulse_round, message = tag
        low, _high = ctx.config.delay_bounds(False)
        src = sorted(ctx.faulty)[0]
        victims = [v for i, v in enumerate(sorted(ctx.honest)) if i % 2 == 0]
        for dst in victims:
            ctx.send_from(src, dst, message, low)


def build_chain_simulation(
    params: ChainParameters,
    clocks: Optional[Sequence[HardwareClock]] = None,
    faulty: Sequence[int] = (),
    behavior=None,
    delay_policy: Optional[DelayPolicy] = None,
    seed: int = 0,
    trace: str = "full",
) -> Simulation:
    """Wire a ready-to-run chain-relay simulation.  The default clocks
    are CPS's wandering draw, one rate a period for 60 periods."""
    if clocks is None:
        schedule = (60.0 * params.period, params.period)
        clocks = wandering_clocks(params, seed, [None] * params.n, schedule)
    return assemble_cps_simulation(
        params,
        clocks,
        faulty,
        behavior,
        delay_policy,
        seed=seed,
        trace=trace,
        node=ChainRelayNode,
    )
