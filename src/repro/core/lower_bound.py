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

This module runs that local-time execution for any
:class:`~repro.sim.runtime.TimedProtocol` (the same protocol classes that
run in the honest simulator — Algorithm CPS included), reconstructs the
three executions' real pulse times, verifies the construction is
*well-defined* (the faulty node learns every honest signature early enough
to send its messages on schedule — the content of Lemma 18), and evaluates
the skew each execution exhibits.  Theorem 5 predicts
``max_i skew(Ex^i) >= 2 u_tilde / 3`` once the fast clocks saturate.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Tuple

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.signatures import Signature, collect_signatures
from repro.sim.clocks import EPS
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.runtime import NodeAPI, TimedProtocol


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


@dataclass(frozen=True)
class LbMessage:
    """A logged message of the local-time execution."""

    sender: int
    receiver: int
    send_local: float
    recv_local: float
    payload: Any


@dataclass
class LowerBoundResult:
    """Everything the Theorem 5 evaluation needs."""

    theta: float
    d: float
    u_tilde: float
    pulses_local: Dict[int, List[float]]
    messages: List[LbMessage]
    #: per execution k: {node: [real pulse times]} for the two honest nodes
    execution_pulses: Dict[int, Dict[int, List[float]]]

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
        shift = ShiftFunction(self.theta, 2.0 * self.u_tilde / 3.0)
        saturation = shift.saturation_time
        indices = []
        for i in range(self.common_pulse_count()):
            real_times = [
                times[i]
                for per_node in self.execution_pulses.values()
                for times in per_node.values()
            ]
            if min(real_times) >= saturation - EPS:
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


class _LbEvent:
    """Queue entry: (local_time, seq) ordering; kind in {timer, message}."""

    __slots__ = ("local_time", "seq", "node", "kind", "data")

    def __init__(self, local_time, seq, node, kind, data):
        self.local_time = local_time
        self.seq = seq
        self.node = node
        self.kind = kind
        self.data = data

    def __lt__(self, other: "_LbEvent") -> bool:
        return (self.local_time, self.seq) < (other.local_time, other.seq)


class _LbNodeAPI(NodeAPI):
    """Local-time :class:`NodeAPI` for the lower-bound engine."""

    def __init__(self, engine: "LowerBoundEngine", node_id: int) -> None:
        self._engine = engine
        self.node_id = node_id
        self.n = 3
        self.f = 1
        self._key_pair = engine.pki.key_pair(node_id)

    def local_time(self) -> float:
        return self._engine.current_local[self.node_id]

    def set_timer(self, local_when: float, tag: Any) -> None:
        now = self._engine.current_local[self.node_id]
        self._engine.push(
            self.node_id, max(local_when, now), "timer", tag
        )

    def send(self, dst: int, payload: Any) -> None:
        self._engine.send(self.node_id, dst, payload)

    def broadcast(self, payload: Any) -> None:
        for dst in range(3):
            if dst != self.node_id:
                self.send(dst, payload)

    def sign(self, value: Hashable) -> Signature:
        return self._key_pair.sign(value)

    def pulse(self) -> None:
        self._engine.pulses_local[self.node_id].append(
            self._engine.current_local[self.node_id]
        )

    def annotate(self, kind: str, details: Any) -> None:
        pass


class LowerBoundEngine:
    """Runs the shared local-time execution behind ``Ex^0, Ex^1, Ex^2``."""

    def __init__(
        self,
        protocol_factory: Callable[[int], TimedProtocol],
        theta: float,
        d: float,
        u_tilde: float,
    ) -> None:
        if theta <= 1.0:
            raise ConfigurationError(
                "the lower-bound construction needs theta > 1 "
                "(the adversary hides the shift inside clock drift)"
            )
        if not 0.0 < u_tilde <= d:
            raise ConfigurationError(
                f"u_tilde must lie in (0, d={d}], got {u_tilde}"
            )
        if d <= 2.0 * u_tilde / 3.0:
            raise ConfigurationError(
                "need d > 2*u_tilde/3 for the causal event ordering"
            )
        self.theta = theta
        self.d = d
        self.u_tilde = u_tilde
        self.shift = ShiftFunction(theta, 2.0 * u_tilde / 3.0)
        self.pki = PublicKeyInfrastructure(3)
        self._seq = itertools.count()
        self._queue: List[_LbEvent] = []
        self.current_local = {j: 0.0 for j in range(3)}
        self.pulses_local: Dict[int, List[float]] = {j: [] for j in range(3)}
        self.messages: List[LbMessage] = []
        self._protocols = {j: protocol_factory(j) for j in range(3)}
        self._apis = {j: _LbNodeAPI(self, j) for j in range(3)}

    # ------------------------------------------------------------------

    def push(self, node: int, local_time: float, kind: str, data: Any):
        heapq.heappush(
            self._queue,
            _LbEvent(local_time, next(self._seq), node, kind, data),
        )

    def reception_local_time(self, src: int, dst: int, send_local: float):
        """``T_{src->dst}``: consistent local reception time (see module
        docstring)."""
        if dst == (src + 1) % 3:
            return self.shift(send_local + self.d)
        if dst == (src + 2) % 3:
            return self.shift.inverse(send_local) + self.d
        raise SimulationError(f"no edge {src}->{dst}")

    def send(self, src: int, dst: int, payload: Any) -> None:
        send_local = self.current_local[src]
        recv_local = self.reception_local_time(src, dst, send_local)
        self.messages.append(
            LbMessage(src, dst, send_local, recv_local, payload)
        )
        self.push(dst, recv_local, "message", (src, payload))

    # ------------------------------------------------------------------

    def run(
        self, max_pulses: int, max_events: int = 2_000_000
    ) -> LowerBoundResult:
        """Drive the shared execution until every node pulsed enough."""
        for j in range(3):
            self._protocols[j].on_start(self._apis[j])
        processed = 0
        while self._queue:
            if all(
                len(self.pulses_local[j]) >= max_pulses for j in range(3)
            ):
                break
            event = heapq.heappop(self._queue)
            processed += 1
            if processed > max_events:
                raise SimulationError("lower-bound engine event cap hit")
            self.current_local[event.node] = max(
                self.current_local[event.node], event.local_time
            )
            api = self._apis[event.node]
            if event.kind == "timer":
                self._protocols[event.node].on_timer(api, event.data)
            else:
                src, payload = event.data
                self._protocols[event.node].on_message(api, src, payload)
        return self._build_result()

    # ------------------------------------------------------------------

    def _honest_clock_inverse(self, k: int, node: int, local: float):
        """Real time in ``Ex^k`` when honest ``node`` reads ``local``."""
        if node == (k + 1) % 3:
            return local  # identity clock
        if node == (k + 2) % 3:
            return self.shift.inverse(local)
        raise SimulationError(f"node {node} is faulty in Ex^{k}")

    def _build_result(self) -> LowerBoundResult:
        execution_pulses: Dict[int, Dict[int, List[float]]] = {}
        common = min(len(self.pulses_local[j]) for j in range(3))
        for k in range(3):
            per_node: Dict[int, List[float]] = {}
            for node in ((k + 1) % 3, (k + 2) % 3):
                per_node[node] = [
                    self._honest_clock_inverse(
                        k, node, self.pulses_local[node][i]
                    )
                    for i in range(common)
                ]
            execution_pulses[k] = per_node
        return LowerBoundResult(
            theta=self.theta,
            d=self.d,
            u_tilde=self.u_tilde,
            pulses_local={j: list(v) for j, v in self.pulses_local.items()},
            messages=list(self.messages),
            execution_pulses=execution_pulses,
        )

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
        for k in range(3):
            knowledge: Dict[Tuple[int, Hashable], float] = {}
            outgoing: List[Tuple[float, LbMessage]] = []
            for message in self.messages:
                if message.sender == k:
                    recv_real = self._honest_clock_inverse(
                        k, message.receiver, message.recv_local
                    )
                    outgoing.append(
                        (recv_real - (self.d - self.u_tilde), message)
                    )
                elif message.receiver == k:
                    send_real = self._honest_clock_inverse(
                        k, message.sender, message.send_local
                    )
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
                    if earliest is None or earliest > send_real + EPS:
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
    """Convenience wrapper: build, run, and (optionally) well-check."""
    engine = LowerBoundEngine(protocol_factory, theta, d, u_tilde)
    result = engine.run(max_pulses=max_pulses)
    if check:
        engine.check_well_defined()
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
