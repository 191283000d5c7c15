"""Symbolic digital signatures with perfect correctness and unforgeability.

The model section of the paper assumes a PKI in which every node ``v`` can
create a signature ``<m>_v`` on a message ``m`` via ``Sign(sk_v, m)`` and
anybody can check it via ``Verify(pk_v, sig, m)``; creating a signature
without the secret key is impossible.

We realize this symbolically.  A :class:`Signature` is an immutable value
carrying the signer identity, the signed payload, and an opaque *mint token*
that only the legitimate :class:`~repro.crypto.pki.KeyPair` possesses.
Constructing a ``Signature`` with a wrong token raises
:class:`SignatureError`, so within a simulation the mere existence of a
``Signature`` object proves it was produced by the matching key pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Hashable, Iterator, Tuple


class SignatureError(Exception):
    """Raised on attempts to mint a signature without the secret key."""


@dataclass(frozen=True)
class Signature:
    """An unforgeable signature ``<value>_signer``.

    Instances must be created through :meth:`repro.crypto.pki.KeyPair.sign`;
    direct construction requires the key pair's private mint token and is
    rejected otherwise.

    Attributes
    ----------
    signer:
        Identifier of the signing node.
    value:
        The signed payload.  Must be hashable so signatures can live in
        sets/dict keys (the simulator deduplicates knowledge by signature).
    """

    signer: int
    value: Hashable
    _token: object = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        from repro.crypto import pki

        if not pki.is_valid_token(self.signer, self._token):
            raise SignatureError(
                f"attempt to forge a signature of node {self.signer}"
            )

    def key(self) -> Tuple[int, Hashable]:
        """Canonical identity of this signature (signer, value).

        Two signatures by the same signer on the same value are considered
        the same object of knowledge: our scheme is deterministic, which is
        the conservative choice for the adversary-knowledge bookkeeping
        (a randomized scheme would only give faulty nodes *more* distinct
        strings to replay, never fewer).
        """
        return (self.signer, self.value)


@lru_cache(maxsize=1 << 16)
def _verify_memo(
    sig_signer: int, sig_value: Hashable, signer: int, value: Hashable
) -> bool:
    """Content-addressed verification cache.

    Keyed by (signer, payload digest) on both the signature's and the
    claimed side: ``lru_cache`` hashes the 4-tuple (the digest) and falls
    back to full equality on collision, so memoized answers are exact.
    Protocols re-verify the same signature chains every round (the signed
    relay and chain-relay baselines verify whole chains per message), so
    the deep payload comparisons are paid once per distinct content.
    """
    return sig_signer == signer and sig_value == value


def verify(signature: Signature, signer: int, value: Hashable) -> bool:
    """Check that ``signature`` is ``signer``'s signature on ``value``.

    Mirrors the paper's ``Verify(pk_v, sig, m)``.  Because forging raises at
    construction time, verification reduces to comparing the claimed signer
    and payload.  Perfect correctness (``Verify(pk, Sign(sk, m), m) = 1``)
    holds by construction.  Results are memoized content-addressed via
    :func:`_verify_memo`; unhashable ``value`` objects (never produced by
    the in-repo protocols) fall back to direct comparison.
    """
    try:
        return _verify_memo(signature.signer, signature.value, signer, value)
    except TypeError:
        return signature.signer == signer and signature.value == value


def verify_cache_stats() -> Any:
    """The memoized-verify hit/miss counters (``functools.CacheInfo``)."""
    return _verify_memo.cache_info()


def clear_verify_cache() -> None:
    """Drop all memoized verification results (used by perf harnesses)."""
    _verify_memo.cache_clear()


def collect_signatures(payload: Any) -> Iterator[Signature]:
    """Yield every :class:`Signature` reachable inside ``payload``.

    Walks tuples/lists/frozensets/dicts and objects exposing a
    ``signatures()`` method (the convention used by protocol message
    payloads).  The simulator uses this to (a) record which signatures a
    faulty node learns from a delivered message and (b) validate that a
    faulty node only sends signatures it already knows.
    """
    if isinstance(payload, Signature):
        yield payload
        return
    if isinstance(payload, (tuple, list, set, frozenset)):
        for item in payload:
            yield from collect_signatures(item)
        return
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from collect_signatures(key)
            yield from collect_signatures(value)
        return
    signatures = getattr(payload, "signatures", None)
    if callable(signatures):
        for item in signatures():
            yield from collect_signatures(item)
