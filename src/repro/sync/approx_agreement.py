"""Algorithm APA (Figure 1) and its iteration (Theorem 9, Corollary 2).

One APA iteration is two synchronous rounds: every node crusader-broadcasts
its current value (n parallel CB instances), then applies the *midpoint
rule*: with ``b`` instances resolving to ⊥, sort the non-⊥ values, discard
the lowest ``f - b`` and highest ``f - b``, and output the midpoint of the
interval spanned by the rest.

Theorem 9: at ``f = ceil(n/2) - 1`` this is ``(ell, ell/2, f)``-secure —
the honest value range at least halves per iteration while staying inside
the honest input range.  Corollary 2: iterating ``ceil(log2(ell/eps))``
times (``2*ceil(log2(ell/eps))`` rounds) reaches any target range ``eps``.

The midpoint rule here (:func:`midpoint_rule`) is the exact decision rule
Algorithm CPS applies to its timed offset estimates, so the timed protocol
imports it from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.sim.errors import ConfigurationError, SimulationError
from repro.sync.crusader import (
    BOT,
    CbEcho,
    CbValue,
    resolve_crusader,
    signed_value_tag,
)
from repro.sync.round_model import (
    BROADCAST,
    RoundMessage,
    SyncAdversary,
    SyncNode,
    SynchronousNetwork,
)


def midpoint_rule(
    values: Sequence[float], num_bot: int, f: int
) -> Tuple[float, Tuple[float, float]]:
    """Apply APA's select-and-midpoint step.

    Parameters
    ----------
    values:
        The non-⊥ values received (the node's own value included).
    num_bot:
        ``b``, the number of instances that resolved to ⊥ — each one proves
        its dealer faulty, so only ``f - b`` *undetected* faults can be
        hiding among ``values`` on either extreme.
    f:
        The resilience parameter.

    Returns ``(midpoint, (low, high))`` where ``[low, high]`` is the
    interval spanned by the retained values.
    """
    if num_bot < 0:
        raise ConfigurationError(f"num_bot must be >= 0, got {num_bot}")
    discard = max(f - num_bot, 0)
    ordered = sorted(values)
    if len(ordered) <= 2 * discard:
        raise SimulationError(
            f"midpoint rule under-determined: {len(ordered)} values, "
            f"discarding {discard} per side — outside the model "
            f"(more than f corruptions?)"
        )
    kept = ordered[discard : len(ordered) - discard]
    interval = (kept[0], kept[-1])
    return (interval[0] + interval[1]) / 2.0, interval


@dataclass
class ApaIterationRecord:
    """Per-iteration diagnostics for one node."""

    iteration: int
    received: Dict[int, Any]
    num_bot: int
    interval: Tuple[float, float]
    value: float


class ApaNode(SyncNode):
    """A node running ``iterations`` APA iterations (2 rounds each)."""

    def __init__(self, input_value: float, iterations: int) -> None:
        super().__init__()
        if iterations < 1:
            raise ConfigurationError("need at least one iteration")
        self.value = float(input_value)
        self.iterations = iterations
        self.history: List[ApaIterationRecord] = []
        self._directs: Dict[int, CbValue] = {}
        self._observed: List[CbValue] = []

    # ------------------------------------------------------------------

    def _instance(self, iteration: int, dealer: int) -> Hashable:
        return ("apa", iteration, dealer)

    def begin_round(self, round_no: int) -> Dict[Any, Any]:
        assert self.ctx is not None
        iteration, phase = divmod(round_no - 1, 2)
        if iteration >= self.iterations:
            return {}
        if phase == 0:
            self._directs = {}
            self._observed = []
            instance = self._instance(iteration, self.ctx.node_id)
            signature = self.ctx.sign(signed_value_tag(instance, self.value))
            return {
                BROADCAST: CbValue(
                    instance, self.ctx.node_id, self.value, signature
                )
            }
        echoes = tuple(self._directs.values())
        return {BROADCAST: CbEcho(echoes)} if echoes else {}

    def end_round(self, round_no: int, inbox: Dict[int, Any]) -> None:
        assert self.ctx is not None
        iteration, phase = divmod(round_no - 1, 2)
        if iteration >= self.iterations:
            return
        if phase == 0:
            for sender, payload in inbox.items():
                if isinstance(payload, CbValue) and payload.dealer == sender:
                    self._directs[sender] = payload
                    self._observed.append(payload)
            return
        for payload in inbox.values():
            if isinstance(payload, CbEcho):
                self._observed.extend(payload.items)
        received: Dict[int, Any] = {}
        for dealer in range(self.ctx.n):
            instance = self._instance(iteration, dealer)
            received[dealer] = resolve_crusader(
                instance, dealer, self._directs.get(dealer), self._observed
            )
        non_bot = [v for v in received.values() if v is not BOT]
        num_bot = self.ctx.n - len(non_bot)
        midpoint, interval = midpoint_rule(non_bot, num_bot, self.ctx.f)
        self.value = midpoint
        self.history.append(
            ApaIterationRecord(iteration, received, num_bot, interval, midpoint)
        )
        if iteration + 1 == self.iterations:
            self.output = self.value


# ----------------------------------------------------------------------
# Adversaries exercising APA


class ApaExtremeAdversary(SyncAdversary):
    """Faulty dealers consistently claim extreme values.

    The strongest *undetectable* value attack: every faulty dealer behaves
    exactly like an honest dealer (no equivocation, so never ⊥) but inputs
    ``low`` or ``high`` alternately, maximally stretching the received
    ranges.  Theorem 9's halving must hold regardless.
    """

    def __init__(self, low: float, high: float) -> None:
        self.low = low
        self.high = high
        self._values: Dict[Tuple[int, int], float] = {}
        self._sent: Dict[Tuple[int, int], CbValue] = {}

    def round_messages(self, ctx, round_no, honest_messages):
        iteration, phase = divmod(round_no - 1, 2)
        messages: List[RoundMessage] = []
        faulty = sorted(ctx.faulty)
        if phase == 0:
            for index, src in enumerate(faulty):
                value = self.low if index % 2 == 0 else self.high
                instance = ("apa", iteration, src)
                item = CbValue(
                    instance,
                    src,
                    value,
                    ctx.sign_as(src, signed_value_tag(instance, value)),
                )
                self._sent[(iteration, src)] = item
                for dst in range(ctx.n):
                    messages.append(RoundMessage(src, dst, item))
        else:
            for src in faulty:
                item = self._sent.get((iteration, src))
                if item is None:
                    continue
                echo = CbEcho((item,))
                for dst in range(ctx.n):
                    messages.append(RoundMessage(src, dst, echo))
        return messages


class ApaSplitAdversary(SyncAdversary):
    """Faulty dealers send values only to half the honest nodes.

    The other half sees the value only through echoes and outputs ⊥ for
    that dealer, producing the asymmetric ⊥ patterns Lemmas 7/8 reason
    about.  Values alternate between the extremes.
    """

    def __init__(self, low: float, high: float) -> None:
        self.low = low
        self.high = high

    def round_messages(self, ctx, round_no, honest_messages):
        iteration, phase = divmod(round_no - 1, 2)
        if phase != 0:
            return []
        messages: List[RoundMessage] = []
        honest = sorted(ctx.honest)
        half = honest[: max(len(honest) // 2, 1)]
        for index, src in enumerate(sorted(ctx.faulty)):
            value = self.low if index % 2 == 0 else self.high
            instance = ("apa", iteration, src)
            item = CbValue(
                instance,
                src,
                value,
                ctx.sign_as(src, signed_value_tag(instance, value)),
            )
            for dst in half:
                messages.append(RoundMessage(src, dst, item))
        return messages


class ApaEquivocatingAdversary(SyncAdversary):
    """Faulty dealers sign *different* values for different honest nodes.

    Honest echoes spread the conflicting signatures, so crusader broadcast
    degrades these dealers to ⊥ everywhere (or to a single consistent value
    for nodes that happened to see only one) — exactly the behaviour the
    signature scheme buys.
    """

    def __init__(self, low: float, high: float) -> None:
        self.low = low
        self.high = high

    def round_messages(self, ctx, round_no, honest_messages):
        iteration, phase = divmod(round_no - 1, 2)
        if phase != 0:
            return []
        messages: List[RoundMessage] = []
        for src in sorted(ctx.faulty):
            instance = ("apa", iteration, src)
            for position, dst in enumerate(range(ctx.n)):
                value = self.low if position % 2 == 0 else self.high
                item = CbValue(
                    instance,
                    src,
                    value,
                    ctx.sign_as(src, signed_value_tag(instance, value)),
                )
                messages.append(RoundMessage(src, dst, item))
        return messages


# ----------------------------------------------------------------------
# Convenience runner


@dataclass
class ApaResult:
    """Outcome of an iterated-APA execution."""

    outputs: Dict[int, float]
    nodes: Dict[int, ApaNode]
    inputs: Dict[int, float]
    iterations: int

    def range_at(self, iteration: int) -> float:
        """Honest value range after ``iteration`` iterations (0 = inputs)."""
        if iteration == 0:
            values = list(self.inputs.values())
        else:
            values = [
                node.history[iteration - 1].value
                for node in self.nodes.values()
            ]
        return max(values) - min(values)

    def ranges(self) -> List[float]:
        """Honest range trajectory, index 0 = initial inputs."""
        return [self.range_at(i) for i in range(self.iterations + 1)]


def run_apa(
    inputs: Dict[int, float],
    n: int,
    f: int,
    faulty: Iterable[int] = (),
    adversary: Optional[SyncAdversary] = None,
    iterations: int = 1,
) -> ApaResult:
    """Run iterated APA and return outputs plus per-iteration diagnostics.

    ``inputs`` must cover every honest node (faulty entries are ignored —
    the adversary chooses what faulty nodes claim).
    """
    faulty_set = set(faulty)
    nodes = {
        v: ApaNode(inputs[v], iterations)
        for v in range(n)
        if v not in faulty_set
    }
    network = SynchronousNetwork(
        dict(nodes), n, f, faulty_set, adversary
    )
    outputs = network.run(2 * iterations)
    honest_inputs = {v: inputs[v] for v in nodes}
    return ApaResult(outputs, nodes, honest_inputs, iterations)


def iterations_for_target(initial_range: float, target: float) -> int:
    """Corollary 2: iterations needed to shrink ``initial_range`` to
    ``target`` (each iteration halves; two rounds per iteration)."""
    import math

    if target <= 0:
        raise ConfigurationError("target range must be positive")
    if initial_range <= target:
        return 0
    return int(math.ceil(math.log2(initial_range / target)))
