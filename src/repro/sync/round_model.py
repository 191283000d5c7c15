"""Synchronous compute-send-receive rounds with a rushing adversary.

Section 2 of the paper analyzes Algorithms CB and APA in the classic
synchronous model: computation proceeds in rounds; in each round every node
sends messages, the *rushing* adversary observes the honest messages of the
round and only then chooses the faulty nodes' messages, and all messages are
delivered before the next round.

:class:`SynchronousNetwork` runs that loop on the event engine, as the
Theorem 5 construction does: rate-1 clocks and delay ``d = 1``, with round
``r`` spanning real time ``[ROUND (r - 1), ROUND r)``.  Honest messages
arrive one time unit into the round; half a unit later the adversary sees
the ones addressed to faulty nodes (whose signatures it then knows — the
engine's forgery rule) and answers with messages that arrive before the
round ends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.errors import ConfigurationError

BROADCAST = "broadcast"

#: Real time per round: honest messages take 1, the adversary answers at
#: 1.5 and its messages arrive at 2.5.
ROUND = 3.0


@dataclass(frozen=True)
class RoundMessage:
    """One message of a synchronous round."""

    src: int
    dst: int
    payload: Any


class SyncNode(abc.ABC):
    """An honest participant of a synchronous protocol.

    A timed protocol whose every round is :meth:`begin_round` (collect
    sends) at the round's start and :meth:`end_round` (deliver the
    round's inbox) at its end.
    """

    def __init__(self) -> None:
        self.ctx: Any = None
        self.output: Any = None
        self._round = 0
        self._inbox: Dict[int, Any] = {}

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

    # The event engine's TimedProtocol hooks; ``api`` is the NodeAPI.
    def on_start(self, api: Any) -> None:
        self.ctx = api
        self._begin()

    def on_message(self, api: Any, sender: int, payload: Any) -> None:
        self._inbox[sender] = payload

    def on_timer(self, api: Any, tag: Any) -> None:
        self.end_round(self._round, self._inbox)
        self._begin()

    def _begin(self) -> None:
        self._round += 1
        self._inbox = {}
        for dst, payload in self.begin_round(self._round).items():
            if dst == BROADCAST:
                self.ctx.broadcast(payload)
                self._inbox[self.ctx.node_id] = payload
            else:
                self.ctx.send(int(dst), payload)
        self.ctx.set_timer(self._round * ROUND, None)


class SyncAdversary:
    """Produces the faulty nodes' messages each round (default: silent)."""

    def round_messages(
        self, ctx, round_no: int, honest_messages: List[RoundMessage]
    ) -> List[RoundMessage]:
        return []


class _Rushing:
    """Asks a :class:`SyncAdversary` for each round's faulty messages:
    the ``on_start`` / ``on_deliver`` / ``on_wakeup`` hooks of the run's
    :class:`~repro.sim.adversary.ByzantineBehavior`."""

    def __init__(self, adversary: SyncAdversary) -> None:
        self.adversary = adversary
        self._seen: List[RoundMessage] = []

    def on_start(self, ctx) -> None:
        ctx.wake_at(1.5, 1)

    def on_deliver(self, ctx, record) -> None:
        if record.src not in ctx.faulty:
            self._seen.append(
                RoundMessage(record.src, record.dst, record.payload)
            )

    def on_wakeup(self, ctx, round_no: int) -> None:
        seen, self._seen = self._seen, []
        for message in self.adversary.round_messages(ctx, round_no, seen):
            ctx.send_from(message.src, message.dst, message.payload, 1.0)
        ctx.wake_at(round_no * ROUND + 1.5, round_no + 1)


class SynchronousNetwork:
    """Runs a synchronous protocol under a rushing adversary."""

    def __init__(
        self,
        nodes: Dict[int, SyncNode],
        n: int,
        f: int,
        faulty: Iterable[int] = (),
        adversary: Optional[SyncAdversary] = None,
    ) -> None:
        # Imported here: a cold ``repro check`` loads this module but
        # must not load the event engine.
        from repro.sim.adversary import ByzantineBehavior
        from repro.sim.clocks import HardwareClock
        from repro.sim.network import NetworkConfig
        from repro.sim.scheduler import Simulation
        from repro.sim.trace import Trace

        faulty = set(faulty)
        self.honest: List[int] = [v for v in range(n) if v not in faulty]
        missing = [v for v in self.honest if v not in nodes]
        if missing:
            raise ConfigurationError(f"no protocol node for honest {missing}")
        self.nodes = {v: nodes[v] for v in self.honest}
        rushing = _Rushing(adversary or SyncAdversary())
        behavior = ByzantineBehavior()
        behavior.on_start = rushing.on_start
        behavior.on_deliver = rushing.on_deliver
        behavior.on_wakeup = rushing.on_wakeup
        self.simulation = Simulation(
            NetworkConfig(n, 1.0, 0.0),
            [HardwareClock.constant_rate() for _ in range(n)],
            self.nodes.__getitem__,
            faulty,
            behavior,
            f=f,
            trace=Trace("none"),
        )

    def run(self, rounds: int) -> Dict[int, Any]:
        """Run through round ``rounds``; return honest outputs (may
        contain None).  A later call resumes."""
        self.simulation.run(until=rounds * ROUND)
        return {v: self.nodes[v].output for v in self.honest}
