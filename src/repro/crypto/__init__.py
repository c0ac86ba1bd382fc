"""Cryptographic substrate built from scratch on SHA-256.

The paper's three PVR building blocks (Section 3.4) map onto this package:

* **commitment** — :mod:`repro.crypto.commitment` (hash commitments) and
  :mod:`repro.crypto.merkle` (tree commitments over whole route-flow
  graphs, Section 3.6);
* **selective disclosure** — Merkle authentication paths with blinded
  siblings (:class:`repro.crypto.merkle.SparseMerkleTree`);
* **verification** — RSA signatures (:mod:`repro.crypto.rsa`) over
  commitments and evidence, plus RST ring signatures
  (:mod:`repro.crypto.ring`) for the link-state variant of Section 3.2,
  and Section 3.8's batch signatures (:mod:`repro.crypto.batch`): one
  RSA signature over a round's salted Merkle leaves.

Only the Python standard library (``hashlib``, ``secrets``) is used; RSA
key generation, Miller-Rabin and the Feistel permutation are implemented
in this package.
"""

from repro.crypto.commitment import (
    Commitment,
    Opening,
    brute_force_bit,
    commit,
    insecure_commit_no_nonce,
    verify_opening,
)
from repro.crypto.hashing import DIGEST_SIZE, hash_bytes, hash_int, hash_many, hash_value
from repro.crypto.keystore import KeyStore, UnknownKeyError
from repro.crypto.merkle import (
    BatchTree,
    MerkleError,
    MerkleProof,
    SparseMerkleTree,
)
from repro.crypto.ring import RingSignature, RingSignatureError
from repro.crypto.rsa import PrivateKey, PublicKey, generate_keypair, sign, verify

__all__ = [
    "Commitment",
    "Opening",
    "brute_force_bit",
    "commit",
    "insecure_commit_no_nonce",
    "verify_opening",
    "DIGEST_SIZE",
    "hash_bytes",
    "hash_int",
    "hash_many",
    "hash_value",
    "KeyStore",
    "UnknownKeyError",
    "BatchTree",
    "MerkleError",
    "MerkleProof",
    "SparseMerkleTree",
    "RingSignature",
    "RingSignatureError",
    "PrivateKey",
    "PublicKey",
    "generate_keypair",
    "sign",
    "verify",
]
