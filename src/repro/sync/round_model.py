"""Synchronous compute-send-receive rounds with a rushing adversary.

Section 2 of the paper analyzes Algorithms CB and APA in the classic
synchronous model: computation proceeds in rounds; in each round every node
sends messages, the *rushing* adversary observes the honest messages of the
round and only then chooses the faulty nodes' messages, and all messages are
delivered before the next round.

:class:`SynchronousNetwork` implements exactly that loop.  Signatures use
the same symbolic scheme and forgery rule as the timed world
(:class:`~repro.sim.knowledge.SignatureKnowledge`, the round as the time):
the adversary knows the signatures in honest messages of rounds up to and
including the current one (rushing), plus all its corrupted keys can sign;
a faulty message using any other raises ``ForgeryError``.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.signatures import Signature
from repro.sim.errors import ConfigurationError

BROADCAST = "broadcast"


@dataclass(frozen=True)
class RoundMessage:
    """One message of a synchronous round."""

    src: int
    dst: int
    payload: Any


class SyncNodeContext:
    """Per-node capabilities in the synchronous world (identity + signing)."""

    def __init__(self, node_id: int, n: int, f: int, key_pair) -> None:
        self.node_id = node_id
        self.n = n
        self.f = f
        self._key_pair = key_pair

    def sign(self, value: Hashable) -> Signature:
        return self._key_pair.sign(value)


class SyncNode(abc.ABC):
    """An honest participant of a synchronous protocol.

    The network calls :meth:`attach` once, then alternates
    :meth:`begin_round` (collect sends) and :meth:`end_round` (deliver the
    round's inbox) until :attr:`output` is set for all honest nodes or the
    round limit is reached.
    """

    def __init__(self) -> None:
        self.ctx: Optional[SyncNodeContext] = None
        self.output: Any = None

    def attach(self, ctx: SyncNodeContext) -> None:
        self.ctx = ctx

    @abc.abstractmethod
    def begin_round(self, round_no: int) -> Dict[Any, Any]:
        """Messages to send this round.

        Returns a mapping ``dst -> payload``; the special key ``BROADCAST``
        sends the payload to every node (including self-delivery, which the
        synchronous abstraction permits and CB/APA rely on: a node "receives"
        its own broadcast).
        """

    @abc.abstractmethod
    def end_round(self, round_no: int, inbox: Dict[int, Any]) -> None:
        """Process the round's deliveries (``sender -> payload``)."""


class SyncAdversaryContext:
    """Observation and action surface for the rushing adversary."""

    def __init__(
        self,
        network: "SynchronousNetwork",
        rng: random.Random,
    ) -> None:
        self._network = network
        self.rng = rng

    @property
    def n(self) -> int:
        return self._network.n

    @property
    def faulty(self) -> Set[int]:
        return set(self._network.faulty)

    @property
    def honest(self) -> List[int]:
        return list(self._network.honest)

    def sign_as(self, faulty_id: int, value: Hashable) -> Signature:
        if faulty_id not in self._network.faulty:
            raise ConfigurationError(
                f"cannot sign for honest node {faulty_id}"
            )
        return self._network.pki.key_pair(faulty_id).sign(value)


class SyncAdversary:
    """Produces the faulty nodes' messages each round (default: silent)."""

    def round_messages(
        self,
        ctx: SyncAdversaryContext,
        round_no: int,
        honest_messages: List[RoundMessage],
    ) -> List[RoundMessage]:
        return []


class SynchronousNetwork:
    """Runs a synchronous protocol under a rushing adversary."""

    def __init__(
        self,
        nodes: Dict[int, SyncNode],
        n: int,
        f: int,
        faulty: Iterable[int] = (),
        adversary: Optional[SyncAdversary] = None,
        seed: int = 0,
    ) -> None:
        self.n = n
        self.f = f
        self.faulty: Set[int] = set(faulty)
        if len(self.faulty) > f:
            raise ConfigurationError(
                f"{len(self.faulty)} corruptions exceed declared f={f}"
            )
        self.honest: List[int] = [v for v in range(n) if v not in self.faulty]
        missing = [v for v in self.honest if v not in nodes]
        if missing:
            raise ConfigurationError(f"no protocol node for honest {missing}")
        self.nodes = {v: nodes[v] for v in self.honest}
        self.pki = PublicKeyInfrastructure(n)
        self.adversary = adversary or SyncAdversary()
        # Imported here: a cold ``repro check`` loads this module but
        # must not load the timed world's clocks.
        from repro.sim.knowledge import SignatureKnowledge

        self.knowledge = SignatureKnowledge(self.faulty)
        self._ctx = SyncAdversaryContext(self, random.Random(seed))
        self.rounds_executed = 0
        for v, node in self.nodes.items():
            node.attach(SyncNodeContext(v, n, f, self.pki.key_pair(v)))

    def _expand(self, src: int, sends: Dict[Any, Any]) -> List[RoundMessage]:
        messages: List[RoundMessage] = []
        for dst, payload in sends.items():
            if dst == BROADCAST:
                for real_dst in range(self.n):
                    messages.append(RoundMessage(src, real_dst, payload))
            else:
                messages.append(RoundMessage(src, int(dst), payload))
        return messages

    def run_round(self, round_no: int) -> None:
        """Execute one compute-send-receive round."""
        honest_messages: List[RoundMessage] = []
        for v in self.honest:
            honest_messages.extend(
                self._expand(v, self.nodes[v].begin_round(round_no))
            )
        # Rushing: the adversary sees this round's honest messages (and
        # thereby learns their signatures) before choosing its own.
        for message in honest_messages:
            self.knowledge.learn_payload(message.payload, round_no)
        faulty_messages = self.adversary.round_messages(
            self._ctx, round_no, list(honest_messages)
        )
        for message in faulty_messages:
            if message.src not in self.faulty:
                raise ConfigurationError(
                    f"adversary sent from honest node {message.src}"
                )
            self.knowledge.check_payload(
                message.payload, round_no, message.src
            )
        inboxes: Dict[int, Dict[int, Any]] = {v: {} for v in self.honest}
        for message in honest_messages + faulty_messages:
            if message.dst in inboxes:
                inboxes[message.dst][message.src] = message.payload
        for v in self.honest:
            self.nodes[v].end_round(round_no, inboxes[v])
        self.rounds_executed += 1

    def run(self, rounds: int) -> Dict[int, Any]:
        """Run ``rounds`` rounds; return honest outputs (may contain None)."""
        for round_no in range(1, rounds + 1):
            self.run_round(round_no)
        return {v: self.nodes[v].output for v in self.honest}
