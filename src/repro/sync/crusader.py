"""Algorithm CB (Figure 4): synchronous crusader broadcast with signatures.

A designated dealer ``v`` holds an input and every node outputs a value or
``⊥`` such that, for up to ``f = ceil(n/2) - 1`` corruptions:

* **Validity** — if the dealer is honest, every honest node outputs the
  dealer's input;
* **Crusader consistency** — if some honest node outputs a value
  ``o != ⊥``, every honest node outputs ``o`` or ``⊥``.

Protocol (2 rounds): the dealer signs and broadcasts its input; every node
echoes what it received; a node outputs ``⊥`` if it saw two conflicting
values validly signed by the dealer (proof of equivocation) or no valid
dealer value at all, and the received value otherwise.

The module exposes both a standalone :class:`CrusaderBroadcastNode` (single
dealer, used directly in tests and experiment E2) and the pure resolution
helper :func:`resolve_crusader` that Algorithm APA reuses for its ``n``
parallel instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.crypto.signatures import Signature, verify
from repro.sync.round_model import BROADCAST, SyncNode


class _Bot:
    """The ⊥ output (distinct from every protocol value)."""

    _instance: Optional["_Bot"] = None

    def __new__(cls) -> "_Bot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


#: The singleton ⊥ value.
BOT = _Bot()


def signed_value_tag(instance: Hashable, value: Hashable) -> Tuple:
    """What a dealer signs for a crusader-broadcast value."""
    return ("cb", instance, value)


@dataclass(frozen=True)
class CbValue:
    """A dealer's (claimed) crusader-broadcast value.

    ``signature`` must be the dealer's signature on
    ``signed_value_tag(instance, value)``; receivers validate this against
    the instance's designated dealer.
    """

    instance: Hashable
    dealer: int
    value: Hashable
    signature: Signature

    def signatures(self) -> Tuple[Signature, ...]:
        return (self.signature,)

    def is_valid(self) -> bool:
        """Does the carried signature actually bind dealer/instance/value?"""
        return verify(
            self.signature,
            self.dealer,
            signed_value_tag(self.instance, self.value),
        )


@dataclass(frozen=True)
class CbEcho:
    """Round-2 echo: a bundle of dealer values a node relays."""

    items: Tuple[CbValue, ...]

    def signatures(self) -> Tuple[Signature, ...]:
        return tuple(item.signature for item in self.items)


def resolve_crusader(
    instance: Hashable,
    dealer: int,
    direct: Optional[CbValue],
    observed: Iterable[CbValue],
) -> Any:
    """Compute a node's crusader-broadcast output.

    Parameters
    ----------
    direct:
        The value received *from the dealer itself* in round 1 (or ``None``).
    observed:
        Every ``CbValue`` for this instance the node has seen (round-1
        direct reception plus all round-2 echoes, from anyone).

    Returns the dealer's value, or :data:`BOT` on missing/invalid direct
    value or any proof of equivocation (two valid dealer signatures on
    different values).
    """
    valid_values = {
        item.value
        for item in observed
        if item.instance == instance and item.dealer == dealer
        and item.is_valid()
    }
    if direct is not None and (
        direct.instance != instance
        or direct.dealer != dealer
        or not direct.is_valid()
    ):
        direct = None
    if direct is not None:
        valid_values.add(direct.value)
    if len(valid_values) >= 2:
        return BOT
    if direct is None:
        return BOT
    return direct.value


class CbEquivocatingDealer:
    """Standalone-CB adversary: the faulty dealer signs different values
    for different recipients (and echoes one of them in round 2).

    Crusader consistency must still hold: honest nodes that see both
    signed values output ⊥; no two honest nodes output different non-⊥
    values.  Importable as a :class:`~repro.sync.round_model.SyncAdversary`.
    """

    def __init__(self, dealer: int, value_a, value_b) -> None:
        self.dealer = dealer
        self.value_a = value_a
        self.value_b = value_b
        self._sent = {}

    def round_messages(self, ctx, round_no, honest_messages):
        from repro.sync.round_model import RoundMessage

        instance = ("cb-standalone", self.dealer)
        messages = []
        if round_no == 1:
            for position, dst in enumerate(range(ctx.n)):
                value = self.value_a if position % 2 == 0 else self.value_b
                item = CbValue(
                    instance,
                    self.dealer,
                    value,
                    ctx.sign_as(
                        self.dealer, signed_value_tag(instance, value)
                    ),
                )
                self._sent[dst] = item
                messages.append(RoundMessage(self.dealer, dst, item))
        return messages


class CbSubsetDealer:
    """Standalone-CB adversary: the faulty dealer addresses only a subset.

    The excluded nodes learn the value only via echoes and output ⊥ — the
    legal "crusader" outcome mixing a value with ⊥ across honest nodes.
    """

    def __init__(self, dealer: int, value, subset) -> None:
        self.dealer = dealer
        self.value = value
        self.subset = set(subset)

    def round_messages(self, ctx, round_no, honest_messages):
        from repro.sync.round_model import RoundMessage

        instance = ("cb-standalone", self.dealer)
        if round_no != 1:
            return []
        item = CbValue(
            instance,
            self.dealer,
            self.value,
            ctx.sign_as(self.dealer, signed_value_tag(instance, self.value)),
        )
        return [
            RoundMessage(self.dealer, dst, item)
            for dst in sorted(self.subset)
        ]


class CrusaderBroadcastNode(SyncNode):
    """Standalone 2-round crusader broadcast (single designated dealer)."""

    def __init__(self, dealer: int, input_value: Hashable = None) -> None:
        super().__init__()
        self.dealer = dealer
        self.input_value = input_value
        self._direct: Optional[CbValue] = None
        self._observed: List[CbValue] = []
        self.instance: Hashable = ("cb-standalone", dealer)

    def begin_round(self, round_no: int) -> Dict[Any, Any]:
        assert self.ctx is not None
        if round_no == 1:
            if self.ctx.node_id != self.dealer:
                return {}
            signature = self.ctx.sign(
                signed_value_tag(self.instance, self.input_value)
            )
            return {
                BROADCAST: CbValue(
                    self.instance, self.dealer, self.input_value, signature
                )
            }
        if round_no == 2:
            if self._direct is None:
                return {}
            return {BROADCAST: CbEcho((self._direct,))}
        return {}

    def end_round(self, round_no: int, inbox: Dict[int, Any]) -> None:
        if round_no == 1:
            payload = inbox.get(self.dealer)
            if isinstance(payload, CbValue):
                self._direct = payload
                self._observed.append(payload)
        elif round_no == 2:
            for payload in inbox.values():
                if isinstance(payload, CbEcho):
                    self._observed.extend(payload.items)
            self.output = resolve_crusader(
                self.instance, self.dealer, self._direct, self._observed
            )
