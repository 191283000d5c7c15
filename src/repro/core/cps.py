"""Algorithm CPS (Figure 3): Crusader Pulse Synchronization.

Each node ``v`` waits until local time ``S`` and then loops over pulses
``r = 1, 2, ...``:

1. generate pulse ``r`` at local time ``H_v(p^r_v)``;
2. act as dealer of its own ``TCB_r`` instance (send ``<r>_v`` at local
   time ``H_v(p^r_v) + theta S``) and participate as receiver in every
   other node's instance;
3. convert each accepted instance output ``h`` into an offset estimate
   ``Delta^r_{v,w} = h - H_v(p^r_v) - d + u - S`` (⊥ stays ⊥; the node's
   own estimate is 0);
4. apply the APA midpoint rule: with ``b`` ⊥ values, sort the non-⊥
   estimates, discard the ``f - b`` lowest and highest, and take the
   midpoint ``Delta^r_v`` of the spanned interval;
5. wait until local time ``H_v(p^r_v) + Delta^r_v + T`` for the next pulse.

Theorem 17: with the parameters of :mod:`repro.core.params`, this is a
``(ceil(n/2)-1)``-secure pulse-synchronization protocol with skew ``S``.

Ablation hooks (used by benchmarks A1-A3) allow disabling the echo
rejection rule, switching the discard rule to the signature-free ``f``
variant, and changing the dealer send offset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.messages import TcbMessage, tcb_tag
from repro.core.params import ProtocolParameters, time_tolerance
from repro.core.tcb import TcbInstance, TcbState, offset_estimate
from repro.sim.clocks import (
    ClockEnsemble,
    Draws,
    HardwareClock,
    Row,
    Schedule,
    validate_initial_skew,
)
from repro.sim.errors import ConfigurationError
from repro.sim.network import DelayPolicy, NetworkConfig
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation
from repro.sim.trace import Trace
from repro.sync.approx_agreement import midpoint_rule
from repro.sync.crusader import BOT

# The per-reception state test: a module global reads in a few ns, the
# enum member through its class in ≈ 40.
_DONE = TcbState.DONE


@dataclass(frozen=True)
class CpsRoundSummary:
    """Diagnostics of one completed CPS round at one node."""

    pulse_round: int
    pulse_local: float
    estimates: Dict[int, Any]
    num_bot: int
    interval: Tuple[float, float]
    correction: float


class CpsNode(TimedProtocol):
    """One (honest) node executing Algorithm CPS."""

    def __init__(
        self,
        params: ProtocolParameters,
        echo_rejection: bool = True,
        discard_rule: str = "f-b",
        dealer_send_offset: Optional[float] = None,
        verify_signatures: bool = True,
        relay_echo: bool = True,
        window_filter: bool = True,
    ) -> None:
        if discard_rule not in ("f-b", "f", "none"):
            raise ConfigurationError(
                f"discard_rule must be 'f-b', 'f', or 'none', "
                f"got {discard_rule!r}"
            )
        self.params = params
        # First-pulse phase and round number; None = the Figure 3
        # defaults (local time S, round 1).  The resynchronization
        # wrapper (repro.dynamics.resync) sets the phase *and* the
        # cohort round a recovering node voted for — TCB instances are
        # tagged by round, so a rejoiner numbering its rounds from 1
        # would discard every cohort message as a mismatch.
        self.start_local: Optional[float] = None
        self.start_round: Optional[int] = None
        self.echo_rejection = echo_rejection
        self.discard_rule = discard_rule
        # Ablation toggles (see repro.ablation): trust-all signature
        # verification, direct relay (no echo amplification), and the
        # accept-all window (no TCB filtering).
        self.verify_signatures = verify_signatures
        self.relay_echo = relay_echo
        self.window_filter = window_filter
        self.dealer_send_offset = (
            params.dealer_send_offset
            if dealer_send_offset is None
            else dealer_send_offset
        )
        self.pulse_round = 0
        self.pulse_local = 0.0
        self.instances: Dict[int, TcbInstance] = {}
        # Instances of this round not yet DONE: decremented where one
        # resolves, so completion is an int test, not a scan.
        self.open_instances = 0
        self.round_complete = True
        self.summaries: List[CpsRoundSummary] = []

    # ------------------------------------------------------------------
    # TimedProtocol interface

    def on_start(self, api: NodeAPI) -> None:
        first = (
            self.params.S if self.start_local is None else self.start_local
        )
        if self.start_round is not None:
            self.pulse_round = self.start_round - 1
        api.set_timer(first, ("pulse",))

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        kind = tag[0]
        if kind == "pulse":
            self._begin_round(api)
            return
        if len(tag) >= 2 and tag[1] != self.pulse_round:
            return  # stale timer from an earlier round
        if kind == "dealer-send":
            signature = api.sign(tcb_tag(self.pulse_round))
            api.broadcast(
                TcbMessage(self.pulse_round, api.node_id, signature)
            )
        elif kind == "window-end":
            for instance in self.instances.values():
                if instance.state is TcbState.WAITING:
                    instance.on_window_end()
                    if instance.state is TcbState.DONE:
                        self.open_instances -= 1
            self._maybe_complete(api)
        elif kind == "finalize":
            instance = self.instances.get(tag[2])
            if instance is not None and instance.state is TcbState.ACCEPTED:
                instance.on_finalize()
                self.open_instances -= 1
            self._maybe_complete(api)

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        # The no-op exits first, cheapest first: only a message that can
        # change an instance's state pays for the signature check.
        if self.round_complete or not isinstance(payload, TcbMessage):
            return
        if payload.pulse_round != self.pulse_round:
            # Early (pre-pulse) and stale receptions fall outside every
            # open window of Figure 2 and are ignored.
            return
        dealer = payload.dealer
        if dealer == api.node_id:
            return  # echoes of our own broadcast carry no information
        instance = self.instances.get(dealer)
        if instance is None or instance.state is _DONE:
            return
        if self.verify_signatures and not payload.is_valid():
            return
        local = api.local_time()
        if sender == dealer:
            actions = instance.on_direct(local)
        else:
            actions = instance.on_echo(local)
        if actions.echo and self.relay_echo:
            api.broadcast(payload)
        if actions.set_finalize_timer is not None:
            api.set_timer(
                actions.set_finalize_timer,
                ("finalize", self.pulse_round, dealer),
            )
            # Observable acceptance (Lemma 11): conformance monitors
            # group these by (round, dealer) and bound their real-time
            # spread; instances later rejected to ⊥ are filtered out
            # via the round summary's estimates.
            api.annotate("tcb-accept", (self.pulse_round, dealer))
        if instance.state is _DONE:
            self.open_instances -= 1
            self._maybe_complete(api)

    # ------------------------------------------------------------------
    # Round lifecycle

    def _begin_round(self, api: NodeAPI) -> None:
        self.pulse_round += 1
        self.pulse_local = api.local_time()
        self.round_complete = False
        api.pulse()
        api.set_timer(
            self.pulse_local + self.dealer_send_offset,
            ("dealer-send", self.pulse_round),
        )
        # Read once a round: the window and wait are derived properties.
        params = self.params
        window = params.tcb_window
        finalize_wait = params.tcb_finalize_wait
        tolerance = params.tolerance
        pulse_round = self.pulse_round
        pulse_local = self.pulse_local
        echo_rejection = self.echo_rejection
        window_filter = self.window_filter
        node_id = api.node_id
        # Positional, in TcbInstance's field order (dealer, pulse_round,
        # pulse_local, window, finalize_wait, echo_rejection,
        # window_filter, tolerance): under half the keyword call's cost.
        self.instances = {
            w: TcbInstance(
                w, pulse_round, pulse_local, window, finalize_wait,
                echo_rejection, window_filter, tolerance,
            )
            for w in range(api.n)
            if w != node_id
        }
        self.open_instances = len(self.instances)
        # The closing timer fires a hair *after* the window bound so that a
        # message arriving exactly at the bound (the Lemma 10 worst case)
        # is still processed first and accepted.
        api.set_timer(
            self.pulse_local + window + 2.0 * tolerance,
            ("window-end", self.pulse_round),
        )

    def _maybe_complete(self, api: NodeAPI) -> None:
        if self.round_complete or self.open_instances:
            return
        self.round_complete = True
        params = self.params
        pulse_local = self.pulse_local
        d, u, s_bound = params.d, params.u, params.S
        estimates: Dict[int, Any] = {api.node_id: 0.0}
        for dealer, instance in self.instances.items():
            output = instance.output
            if output is BOT:
                estimates[dealer] = BOT
            else:
                estimates[dealer] = offset_estimate(
                    output, pulse_local, d, u, s_bound
                )
        non_bot = [v for v in estimates.values() if v is not BOT]
        num_bot = api.n - len(non_bot)
        if self.discard_rule == "none":
            # apa=off ablation: single-shot vote — no ⊥-aware
            # discarding at all, the raw midpoint of every estimate.
            correction, interval = midpoint_rule(non_bot, 0, 0)
        else:
            effective_bot = num_bot if self.discard_rule == "f-b" else 0
            correction, interval = midpoint_rule(
                non_bot, effective_bot, params.f
            )
        summary = CpsRoundSummary(
            pulse_round=self.pulse_round,
            pulse_local=self.pulse_local,
            estimates=estimates,
            num_bot=num_bot,
            interval=interval,
            correction=correction,
        )
        self.summaries.append(summary)
        api.annotate("cps-round", summary)
        api.set_timer(pulse_local + correction + params.T, ("pulse",))


# ----------------------------------------------------------------------
# Simulation assembly helpers


def wandering_clocks(
    params: Any,
    seed: int,
    entries: List[Optional[Row]],
    schedule: Optional[Schedule] = None,
) -> ClockEnsemble:
    """The ensemble of ``entries``, each ``None`` a wandering clock:
    offset in ``[0, S]``, then a rate in ``[1, theta]`` per step of
    ``schedule`` — CPS's default is every ``5 d`` over ``[0, 200 d]``
    — drawn from ``Random(seed)`` clock by clock in node order, offset
    first (the order every seeded artifact depends on).  ``params`` is
    any record with ``theta``, ``d`` and ``S``: the relay baselines
    draw their clocks here too, on their own schedule.
    """
    if schedule is None:
        horizon = 200.0 * params.d
        schedule = (horizon, max(horizon / 40.0, params.d))
    draws = Draws.take(
        random.Random(seed), entries.count(None), schedule, params.S
    )
    return ClockEnsemble(
        entries, params.theta, draws, time_tolerance(params.d)
    )


def default_clocks(
    params: ProtocolParameters, seed: int = 0
) -> ClockEnsemble:
    """The ``random`` clock ensemble (the drift registry's default):
    every clock wanders (:func:`wandering_clocks`).

    Rates stay at 1 after ``200 d``: the ensemble stops drifting after
    about 94 pulses at ``theta = 1.001``.  Every committed run is
    shorter and nothing warns.  The other ensembles are registry
    entries (:mod:`repro.scenarios.drift`).
    """
    return wandering_clocks(params, seed, [None] * params.n)


def assemble_cps_simulation(
    params: ProtocolParameters,
    clocks: Optional[Sequence[HardwareClock]] = None,
    faulty: Sequence[int] = (),
    behavior=None,
    delay_policy: Optional[DelayPolicy] = None,
    u_tilde: Optional[float] = None,
    seed: int = 0,
    trace: str = "full",
    dynamics=None,
    network_timing: Optional[Tuple[float, float]] = None,
    node: Callable[..., TimedProtocol] = CpsNode,
    **node_kwargs: Any,
) -> Simulation:
    """Wire a ready-to-run event-engine CPS simulation.

    This is the low-level assembly step: explicit clocks, behaviours,
    and hooks, always on the event backend.  Registry-keyed
    construction and backend selection live in
    :func:`repro.build.build_simulation`, which most callers should
    use instead.

    Every node runs ``node(params, **node_kwargs)``: :class:`CpsNode`
    with its ablation hooks, or another protocol on the same wiring
    (:class:`~repro.baselines.lynch_welch.LynchWelchNode`, or a relay
    baseline's node with its own record of ``n``, ``f``, ``theta``,
    ``d``, ``u`` and ``S``).
    ``clocks`` defaults to the seeded ``random`` ensemble; any other
    comes from the drift registry
    (``scenarios.create("drift", key, params, seed)``).  Initial clock
    offsets are validated against the ``H_v(0) in [0, S]``
    assumption of Figure 3.  ``dynamics`` installs a
    :class:`~repro.sim.runtime.DynamicsHook` (churn schedules; see
    :mod:`repro.dynamics`); monitors are attached afterwards through
    ``simulation.attach_checks``.

    ``network_timing`` overrides the network's ``(d, u)`` independently
    of the protocol parameters — the ``overlay=off`` ablation runs the
    base-graph parameterization against the overlay network's real
    effective delays.
    """
    net_d, net_u = (
        (params.d, params.u) if network_timing is None else network_timing
    )
    config = NetworkConfig(params.n, net_d, net_u, u_tilde)
    if clocks is None:
        clocks = default_clocks(params, seed=seed)
    excluded = set(faulty)
    validate_initial_skew(
        [clocks[v] for v in range(params.n) if v not in excluded],
        params.S,
    )
    return Simulation(
        config=config,
        clocks=clocks,
        protocol_factory=lambda v: node(params, **node_kwargs),
        faulty=faulty,
        behavior=behavior,
        delay_policy=delay_policy,
        f=params.f,
        trace=Trace(trace),
        dynamics=dynamics,
    )
