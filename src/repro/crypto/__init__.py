"""Cryptographic substrate: a symbolic (Dolev-Yao style) signature scheme.

The paper treats signatures as ideal objects: a signature ``<m>_v`` on a
message ``m`` with respect to node ``v``'s public key can only be produced
with knowledge of ``v``'s secret key, and verification is perfectly correct.
This package provides exactly that abstraction.  Unforgeability is enforced
*by construction*: :class:`~repro.crypto.signatures.Signature` objects can
only be minted through a :class:`~repro.crypto.pki.KeyPair`'s signing handle,
and the simulation layer additionally tracks *when* each signature became
known to the adversary (see :mod:`repro.sim.knowledge`).
"""
