"""From-scratch RSA with full-domain-hash signatures.

Section 3.8 of the paper budgets "about two milliseconds" for an RSA-1024
signature and identifies signatures as PVR's dominant cost.  This module
provides the scheme: textbook RSA keys generated from our own Miller-Rabin
prime generator, with FDH-style signing (hash the message to a fixed-width
integer below the modulus, then apply the private permutation).  CRT is
used for the private operation, matching the constant-factor behaviour of
real implementations.

The same trapdoor permutation doubles as the building block of the RST
ring signature in :mod:`repro.crypto.ring` (Section 3.2's link-state
variant).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable

from repro.crypto import numbers
from repro.crypto.hashing import hash_int, hash_many

PUBLIC_EXPONENT = 65537
_SIG_DOMAIN = "repro.rsa.fdh"


@dataclass(frozen=True)
class PublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def fingerprint(self) -> bytes:
        """Stable identifier for key stores and evidence records."""
        return hash_many(
            "repro.rsa.fingerprint",
            self.n.to_bytes((self.bits + 7) // 8, "big"),
            self.e.to_bytes(8, "big"),
        )

    def apply(self, x: int) -> int:
        """The public (forward) permutation x -> x^e mod n."""
        if not 0 <= x < self.n:
            raise ValueError("input outside [0, n)")
        return pow(x, self.e, self.n)

    def canonical(self) -> bytes:
        from repro.util.encoding import canonical_encode

        return canonical_encode(("rsa-public", self.n, self.e))


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key with CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int

    @property
    def public(self) -> PublicKey:
        return PublicKey(n=self.n, e=self.e)

    def apply(self, x: int) -> int:
        """The private (inverse) permutation, computed via CRT."""
        if not 0 <= x < self.n:
            raise ValueError("input outside [0, n)")
        mp = pow(x % self.p, self.dp, self.p)
        mq = pow(x % self.q, self.dq, self.q)
        return numbers.crt_combine(mp, mq, self.p, self.q, self.q_inv) % self.n


def generate_keypair(
    bits: int = 1024, random_bytes: Callable[[int], bytes] | None = None
) -> PrivateKey:
    """Generate an RSA keypair with a ``bits``-bit modulus.

    ``random_bytes`` defaults to the OS CSPRNG; tests and deterministic
    benchmarks pass a :class:`repro.util.rng.DeterministicRandom` stream.
    """
    if bits < 256:
        raise ValueError("modulus below 256 bits is not supported")
    if bits % 2:
        raise ValueError("modulus size must be even")
    rand = random_bytes if random_bytes is not None else secrets.token_bytes
    half = bits // 2
    while True:
        p = numbers.generate_prime(half, rand)
        q = numbers.generate_prime(half, rand)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = numbers.modinv(PUBLIC_EXPONENT, phi)
        except ValueError:
            continue
        if p < q:
            p, q = q, p
        return PrivateKey(
            n=n,
            e=PUBLIC_EXPONENT,
            d=d,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            q_inv=numbers.modinv(q, p),
        )


def _digest_to_point(message: bytes, n: int) -> int:
    """Full-domain hash of ``message`` into Z_n (one bit short of n)."""
    return hash_int(_SIG_DOMAIN, message, n.bit_length() - 1)


def sign(key: PrivateKey, message: bytes) -> bytes:
    """FDH-RSA signature over ``message``."""
    point = _digest_to_point(message, key.n)
    signature = key.apply(point)
    return signature.to_bytes((key.n.bit_length() + 7) // 8, "big")


def verify(key: PublicKey, message: bytes, signature: bytes) -> bool:
    """Verify an FDH-RSA signature; returns False on any mismatch."""
    expected_len = (key.n.bit_length() + 7) // 8
    if len(signature) != expected_len:
        return False
    sig_int = int.from_bytes(signature, "big")
    if sig_int >= key.n:
        return False
    return key.apply(sig_int) == _digest_to_point(message, key.n)
