"""Adversary signature-knowledge tracking (the anti-forgery bookkeeping).

The paper's executions are *well-defined* only if, for each message ``m``
sent by a faulty node at time ``t``, every honest signature that ``m``
depends on was contained in some message received by some faulty node by
time ``t`` (faulty nodes pool knowledge instantly — footnote 1).

:class:`SignatureKnowledge` records, per honest signature, the earliest real
time the adversary learned it, and refuses faulty sends that would violate
the rule by raising :class:`~repro.sim.errors.ForgeryError`.  Signatures by
*faulty* signers are always available to the adversary, which holds the
corrupted nodes' secret keys.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Set, Tuple

from repro.core.params import RELATIVE_TOLERANCE
from repro.crypto.signatures import Signature, collect_signatures
from repro.sim.errors import ForgeryError

SignatureKey = Tuple[int, Hashable]


class SignatureKnowledge:
    """Earliest-knowledge table for the (pooled) adversary."""

    def __init__(
        self, faulty: Iterable[int], tolerance: float = RELATIVE_TOLERANCE
    ) -> None:
        self.faulty: Set[int] = set(faulty)
        self.tolerance = tolerance
        self._earliest: Dict[SignatureKey, float] = {}
        # Content-addressed memo of collect_signatures(): a broadcast
        # payload reaches every faulty node, so the identical (hashable)
        # payload is walked once instead of once per delivery.  Signatures
        # compare by (signer, value), so equal payloads contain equal
        # signature sets by construction.
        self._collected: Dict[Any, Tuple[Signature, ...]] = {}
        # Identity memo of learn_payload(): the same broadcast *object*
        # reaches every faulty node, so re-learning it at a later time
        # returns before hashing.  The entry keeps a reference to the
        # payload, so its id() cannot be recycled while it is a key.
        self._learned: Dict[int, Tuple[Any, float]] = {}

    def stats(self) -> Dict[str, int]:
        """Deterministic table sizes for the telemetry layer."""
        return {
            "signatures_known": len(self._earliest),
            "payloads_memoized": len(self._collected),
        }

    def signatures_of(self, payload: Any) -> Tuple[Signature, ...]:
        """All signatures inside ``payload`` (memoized per content)."""
        try:
            cached = self._collected.get(payload)
        except TypeError:  # unhashable payload: walk it every time
            return tuple(collect_signatures(payload))
        if cached is None:
            cached = tuple(collect_signatures(payload))
            self._collected[payload] = cached
        return cached

    def learn_payload(self, payload: Any, time: float) -> None:
        """Record all signatures inside ``payload`` as known from ``time``.

        A payload object already learned at a time ``<= time`` can teach
        nothing new (:meth:`learn` keeps the earliest) and is skipped;
        an earlier time, or an equal payload that is another object,
        takes the full path.  Payloads are immutable once sent.
        """
        learned = self._learned.get(id(payload))
        if learned is not None and learned[1] <= time:
            return
        for signature in self.signatures_of(payload):
            self.learn(signature, time)
        self._learned[id(payload)] = (payload, time)

    def learn(self, signature: Signature, time: float) -> None:
        """Record ``signature`` as known from ``time`` (keep the earliest)."""
        key = signature.key()
        existing = self._earliest.get(key)
        if existing is None or time < existing:
            self._earliest[key] = time

    def knows(self, signature: Signature, time: float) -> bool:
        """Can the adversary produce ``signature`` at ``time``?"""
        if signature.signer in self.faulty:
            return True
        earliest = self._earliest.get(signature.key())
        return earliest is not None and earliest <= time + self.tolerance

    def earliest_known(self, signature: Signature) -> float:
        """When the adversary first learned ``signature``.

        Returns ``0.0`` for faulty-signer signatures (always known) and
        ``inf`` for honest signatures never observed.
        """
        if signature.signer in self.faulty:
            return 0.0
        return self._earliest.get(signature.key(), float("inf"))

    def check_payload(self, payload: Any, time: float, sender: int) -> None:
        """Validate a faulty send: every contained signature must be known.

        Raises
        ------
        ForgeryError
            If ``payload`` contains an honest signature the adversary has
            not received by ``time``.
        """
        for signature in self.signatures_of(payload):
            if not self.knows(signature, time):
                raise ForgeryError(
                    f"faulty node {sender} tried to send signature "
                    f"{signature.key()} at time {time}, first known at "
                    f"{self.earliest_known(signature)}"
                )
