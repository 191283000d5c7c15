"""Theorem 5: the 2*u_tilde/3 skew lower bound, executable.

The paper constructs three executions ``Ex^0, Ex^1, Ex^2`` of an arbitrary
pulse-synchronization algorithm for ``n = 3`` such that (properties P):

* node ``i`` is faulty in ``Ex^i`` (``H^i = [3] \\ {i}``);
* messages between honest nodes have delay exactly ``d``; all messages
  involving the faulty node have delay ``d - u_tilde``;
* ``H^i_{i+1}(t) = t`` and ``H^i_{i+2}(t) = min(theta t, t + 2 u_tilde/3)``
  (rate ``theta`` until the offset saturates at ``2 u_tilde / 3``);
* node ``i`` cannot distinguish ``Ex^{i+1}`` from ``Ex^{i+2}``.

Indistinguishability means every node sends/receives the same messages at
the same *local* times in both executions where it is honest.  The whole
triple is therefore generated by a single *local-time* execution of three
deterministic behaviour machines, where the local reception time of a
message on edge ``j -> j'`` is fixed by the unique execution in which both
endpoints are honest (delay ``d``):

* ``j' = j + 1`` (receiver has the fast clock there):
  ``T(l) = F(l + d)``;
* ``j' = j + 2`` (sender has the fast clock there):
  ``T(l) = F^{-1}(l) + d``;

with ``F(x) = min(theta x, x + 2 u_tilde / 3)``.

:func:`run_lower_bound` runs that local-time execution on the event
engine for any :class:`~repro.sim.runtime.TimedProtocol` (the same
protocol classes that run in the honest simulator — Algorithm CPS
included): three rate-1 clocks, so real time *is* the shared local time,
and :class:`ShiftedDelays`, which gives each message the delay
``T(l) - l``.  Its :class:`LowerBoundResult` reconstructs the three
executions' real pulse times, verifies the construction is
*well-defined* (the faulty node learns every honest signature early enough
to send its messages on schedule — the content of Lemma 18), and evaluates
the skew each execution exhibits.  Theorem 5 predicts
``max_i skew(Ex^i) >= 2 u_tilde / 3`` once the fast clocks saturate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Tuple

from repro.core.params import time_tolerance
from repro.crypto.signatures import collect_signatures
from repro.sim.clocks import HardwareClock
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.network import DelayPolicy, NetworkConfig
from repro.sim.runtime import NodeAPI, TimedProtocol
from repro.sim.scheduler import Simulation
from repro.sim.trace import SendRecord, Trace


@dataclass(frozen=True)
class ShiftFunction:
    """``F(x) = min(theta x, x + shift)`` and its inverse.

    The adversarial clock of properties P: rate ``theta`` until real time
    ``shift / (theta - 1)``, rate 1 (offset ``shift``) afterwards.
    """

    theta: float
    shift: float

    def __call__(self, x: float) -> float:
        if self.shift == 0:
            return x
        return min(self.theta * x, x + self.shift)

    def inverse(self, y: float) -> float:
        if self.shift == 0:
            return y
        return max(y / self.theta, y - self.shift)

    @property
    def saturation_time(self) -> float:
        """Real time after which ``F(t) = t + shift`` exactly."""
        if self.shift == 0:
            return 0.0
        return self.shift / (self.theta - 1.0)


class ShiftedDelays(DelayPolicy):
    """The delays ``T(l) - l`` of the shared local-time execution.

    A message sent at ``l`` on edge ``j -> j + 1`` takes
    ``F(l + d) - l``, in ``[d, d + shift]``; on edge ``j -> j + 2`` it
    takes ``F^{-1}(l) + d - l``, in ``[d - shift, d]``.  The rule reads
    the send time and the edge, so it overrides :meth:`delay` and runs
    on the event engine only.
    """

    def __init__(self, shift: ShiftFunction, d: float) -> None:
        self.shift = shift
        self.d = d

    def delay(self, config, src, dst, send_time, payload, link_is_honest):
        if dst == (src + 1) % 3:
            return self.shift(send_time + self.d) - send_time
        return self.shift.inverse(send_time) + self.d - send_time


@dataclass
class LowerBoundResult:
    """Everything the Theorem 5 evaluation needs."""

    theta: float
    d: float
    u_tilde: float
    pulses_local: Dict[int, List[float]]
    #: the shared execution's sends: one sent at local ``time`` arrives
    #: at local ``time + delay``
    messages: List[SendRecord]
    shift: ShiftFunction = field(init=False, repr=False)
    #: per execution k: {node: [real pulse times]} for the two honest nodes
    execution_pulses: Dict[int, Dict[int, List[float]]] = field(init=False)

    def __post_init__(self) -> None:
        self.shift = ShiftFunction(self.theta, 2.0 * self.u_tilde / 3.0)
        common = self.common_pulse_count()
        self.execution_pulses = {
            k: {
                node: [
                    self.real_time(k, node, local)
                    for local in self.pulses_local[node][:common]
                ]
                for node in ((k + 1) % 3, (k + 2) % 3)
            }
            for k in range(3)
        }

    @property
    def tolerance(self) -> float:
        """How close two times must be to count as equal."""
        return time_tolerance(self.d)

    def real_time(self, k: int, node: int, local: float) -> float:
        """Real time in ``Ex^k`` when honest ``node`` reads ``local``."""
        if node == (k + 1) % 3:
            return local  # identity clock
        if node == (k + 2) % 3:
            return self.shift.inverse(local)
        raise SimulationError(f"node {node} is faulty in Ex^{k}")

    def skew_of_execution(self, k: int, pulse_index: int) -> float:
        """``|p^k_{k+1, i} - p^k_{k+2, i}|`` (0-based pulse index)."""
        nodes = sorted(self.execution_pulses[k])
        a, b = nodes
        return abs(
            self.execution_pulses[k][a][pulse_index]
            - self.execution_pulses[k][b][pulse_index]
        )

    def max_skew_at(self, pulse_index: int) -> float:
        """Worst execution skew at one pulse index."""
        return max(self.skew_of_execution(k, pulse_index) for k in range(3))

    def common_pulse_count(self) -> int:
        return min(len(p) for p in self.pulses_local.values())

    def saturated_pulse_indices(self) -> List[int]:
        """Pulse indices where every fast clock has saturated.

        For these indices the Theorem 5 identity (the three signed
        differences sum to ``2 u_tilde``) holds exactly.
        """
        floor = self.shift.saturation_time - self.tolerance
        indices = []
        for i in range(self.common_pulse_count()):
            real_times = [
                times[i]
                for per_node in self.execution_pulses.values()
                for times in per_node.values()
            ]
            if min(real_times) >= floor:
                indices.append(i)
        return indices

    def theorem_identity(self, pulse_index: int) -> float:
        """The telescoping sum of the Theorem 5 proof.

        ``(p^0_1 - p^0_2) + (p^1_2 - p^1_0) + (p^2_0 - p^2_1)`` evaluates
        to exactly ``2 u_tilde`` for saturated pulses.
        """
        total = 0.0
        for k in range(3):
            first = (k + 1) % 3
            second = (k + 2) % 3
            total += (
                self.execution_pulses[k][first][pulse_index]
                - self.execution_pulses[k][second][pulse_index]
            )
        return total

    # ------------------------------------------------------------------
    # Well-definedness (Lemma 18's bookkeeping, checked concretely)

    def check_well_defined(self) -> None:
        """Verify every execution's faulty node can act on schedule.

        For each ``Ex^k`` and each message the (there faulty) node ``k``
        sends, the realized ``Ex^k`` send time is the reception real time
        minus ``d - u_tilde``.  Every honest signature inside the message
        must have been contained in some message *received by* ``k`` in
        ``Ex^k`` (delay ``d - u_tilde`` on those links) strictly earlier.

        Raises :class:`SimulationError` with a counterexample otherwise.
        """
        tolerance = self.tolerance
        for k in range(3):
            knowledge: Dict[Tuple[int, Hashable], float] = {}
            outgoing: List[Tuple[float, SendRecord]] = []
            for message in self.messages:
                if message.src == k:
                    recv_real = self.real_time(
                        k, message.dst, message.time + message.delay
                    )
                    outgoing.append(
                        (recv_real - (self.d - self.u_tilde), message)
                    )
                elif message.dst == k:
                    send_real = self.real_time(k, message.src, message.time)
                    arrival = send_real + (self.d - self.u_tilde)
                    for signature in collect_signatures(message.payload):
                        key = signature.key()
                        if key not in knowledge or arrival < knowledge[key]:
                            knowledge[key] = arrival
            for send_real, message in outgoing:
                for signature in collect_signatures(message.payload):
                    if signature.signer == k:
                        continue
                    earliest = knowledge.get(signature.key())
                    if earliest is None or earliest > send_real + tolerance:
                        raise SimulationError(
                            f"Ex^{k} ill-defined: node {k} sends "
                            f"{signature.key()} at {send_real} but first "
                            f"learns it at {earliest}"
                        )


def run_lower_bound(
    protocol_factory: Callable[[int], TimedProtocol],
    theta: float,
    d: float,
    u_tilde: float,
    max_pulses: int = 12,
    check: bool = True,
) -> LowerBoundResult:
    """Run the shared local-time execution and (optionally) check that
    it defines all three executions.

    The run is an event-engine :class:`Simulation` of three honest nodes
    on rate-1 clocks under :class:`ShiftedDelays`; its network admits
    ``[d - shift, d + shift]``, which holds every ``T(l) - l``.
    """
    if theta <= 1.0:
        raise ConfigurationError(
            "the lower-bound construction needs theta > 1 "
            "(the adversary hides the shift inside clock drift)"
        )
    if not 0.0 < u_tilde <= d:
        raise ConfigurationError(
            f"u_tilde must lie in (0, d={d}], got {u_tilde}"
        )
    shift = ShiftFunction(theta, 2.0 * u_tilde / 3.0)
    run = Simulation(
        config=NetworkConfig(3, d + shift.shift, 2.0 * shift.shift),
        clocks=[HardwareClock.constant_rate() for _ in range(3)],
        protocol_factory=protocol_factory,
        delay_policy=ShiftedDelays(shift, d),
        f=1,
        trace=Trace("full"),
    ).run(max_pulses=max_pulses)
    result = LowerBoundResult(
        theta=theta,
        d=d,
        u_tilde=u_tilde,
        pulses_local=run.pulses,
        messages=list(run.trace.of_type(SendRecord)),
    )
    if check:
        result.check_well_defined()
    return result


class FixedPeriodProtocol(TimedProtocol):
    """A communication-free pulser (sanity baseline for Theorem 5).

    Pulses every ``period`` local-time units.  Its execution skew is the
    raw hardware offset — exactly ``2 u_tilde / 3`` once saturated —
    showing the construction's accounting independent of any algorithm.
    """

    def __init__(self, period: float) -> None:
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.period = period

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(self.period, "tick")

    def on_message(self, api: NodeAPI, sender: int, payload: Any) -> None:
        pass

    def on_timer(self, api: NodeAPI, tag: Any) -> None:
        api.pulse()
        api.set_timer(api.local_time() + self.period, "tick")
