"""Domain-separated hashing.

Every hash in the system is SHA-256 with an explicit ASCII domain tag, so a
digest produced for one purpose (say, a Merkle inner node) can never be
replayed as a digest for another (say, a commitment).  The paper's
constructions (Sections 3.2, 3.3, 3.6) all reduce to "a cryptographic hash
function such as SHA-256"; the domain separation is standard hygiene the
paper leaves implicit.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.util.encoding import canonical_encode

DIGEST_SIZE = 32

#: Running total of domain-separated digests computed in this process.
#: ``benchmarks/e2e`` reports per-workload deltas of this counter
#: (``crypto.hashes``); it is a plain int counting this process only —
#: shard and cluster worker processes do not report back.
_hash_count = 0


def hash_count() -> int:
    """Digests computed so far in this process (see :data:`_hash_count`)."""
    return _hash_count


def hash_bytes(domain: str, data: bytes) -> bytes:
    """SHA-256 of ``data`` under the given domain tag."""
    global _hash_count
    _hash_count += 1
    h = hashlib.sha256()
    tag = domain.encode("ascii")
    h.update(len(tag).to_bytes(2, "big"))
    h.update(tag)
    h.update(data)
    return h.digest()


def hash_value(domain: str, value: Any) -> bytes:
    """Hash an arbitrary supported value via canonical encoding."""
    return hash_bytes(domain, canonical_encode(value))


def hash_many(domain: str, *parts: bytes) -> bytes:
    """Hash several byte strings with unambiguous framing.

    Each part is length-prefixed so ``hash_many(d, a, b)`` can never equal
    ``hash_many(d, a + b)``.
    """
    global _hash_count
    _hash_count += 1
    h = hashlib.sha256()
    tag = domain.encode("ascii")
    h.update(len(tag).to_bytes(2, "big"))
    h.update(tag)
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hash_int(domain: str, data: bytes, width_bits: int) -> int:
    """Derive a ``width_bits``-bit integer from ``data``.

    Used by the RSA layer (full-domain-hash style padding) and the ring
    signature's keyed permutation.  Output is the concatenation of counter-
    mode SHA-256 blocks truncated to the requested width.
    """
    if width_bits <= 0:
        raise ValueError("width_bits must be positive")
    nbytes = (width_bits + 7) // 8
    stream = bytearray()
    counter = 0
    while len(stream) < nbytes:
        stream += hash_bytes(domain, counter.to_bytes(4, "big") + data)
        counter += 1
    value = int.from_bytes(bytes(stream[:nbytes]), "big")
    excess = nbytes * 8 - width_bits
    return value >> excess
