"""Public-key infrastructure for the symbolic signature scheme.

Every node is issued a :class:`KeyPair` by a
:class:`PublicKeyInfrastructure`.  The key pair holds a private *mint token*
(an anonymous object) that is registered in a process-global token table;
:class:`~repro.crypto.signatures.Signature` construction checks the token
against that table, so only the holder of the key pair can mint signatures
for its identity.

Multiple simulations may run concurrently in one process: tokens are unique
objects per ``PublicKeyInfrastructure`` instance, and re-issuing a PKI for
the same node ids simply registers additional valid tokens.  This mirrors
the paper's static PKI assumption ("every node v has a public key pk_v that
all other nodes agree on").
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set

from repro.crypto.signatures import Signature

# Global registry: node id -> set of valid mint tokens.  Identity of the
# token object is the secret; holding a reference to it is holding sk_v.
_TOKENS: Dict[int, Set[int]] = {}
_TOKEN_OBJECTS: List[object] = []  # keep tokens alive so ids stay unique


def is_valid_token(signer: int, token: object) -> bool:
    """Return whether ``token`` is a registered secret key for ``signer``."""
    return id(token) in _TOKENS.get(signer, set())


class KeyPair:
    """A node's signing capability (``sk_v`` plus implicit ``pk_v``)."""

    def __init__(self, node_id: int, token: object) -> None:
        self.node_id = node_id
        self._token = token

    def sign(self, value: Hashable) -> Signature:
        """Produce ``<value>_node`` (the paper's ``Sign(sk_v, m)``)."""
        return Signature(self.node_id, value, self._token)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KeyPair(node_id={self.node_id})"


class PublicKeyInfrastructure:
    """Issues key pairs for the ``n`` nodes of a system.

    The PKI is trusted setup: honest nodes receive their key pair from the
    simulator, and the adversary receives the key pairs of corrupted nodes
    (it "may use corrupted nodes' secrets to generate signatures for them").
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"need at least one node, got n={n}")
        self.n = n
        self._key_pairs: Dict[int, KeyPair] = {}
        for node_id in range(n):
            token = object()
            _TOKEN_OBJECTS.append(token)
            _TOKENS.setdefault(node_id, set()).add(id(token))
            self._key_pairs[node_id] = KeyPair(node_id, token)

    def key_pair(self, node_id: int) -> KeyPair:
        """Hand out ``sk_{node_id}``.  Only the simulator should call this."""
        try:
            return self._key_pairs[node_id]
        except KeyError:
            raise KeyError(
                f"node {node_id} is not part of this PKI (n={self.n})"
            ) from None
