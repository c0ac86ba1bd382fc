"""Key management for simulated ASes.

PVR assumes every participating network holds a signing keypair whose
public half is known to its neighbors (the paper piggybacks on the same
PKI assumptions as S-BGP).  :class:`KeyStore` is that PKI substrate: it
generates per-AS keypairs deterministically from a seed (so experiments
are replayable) and acts as the trusted directory the *judge* consults
when validating evidence.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable

from repro.crypto import rsa
from repro.util.rng import DeterministicRandom


class UnknownKeyError(KeyError):
    """Raised when a public key is requested for an unregistered AS."""


class KeyStore:
    """Directory of per-AS RSA keypairs.

    ``key_bits`` trades speed for security margin; experiments default to
    1024 bits to match the paper's "RSA-1024" overhead discussion, while
    unit tests use smaller keys for speed.

    The store is safe to hand to shard and cluster workers: key
    derivation depends only on the seed material (a lazily-generated key
    is identical wherever it is generated), registration is locked,
    pickling carries the key table to process workers, and
    :meth:`worker_view` gives each unit of work its own operation
    counters to merge back via :meth:`add_counts`.
    """

    def __init__(self, seed=0, key_bits: int = 1024) -> None:
        self._rng = DeterministicRandom(seed).fork("keystore")
        self._key_bits = key_bits
        self._private: Dict[str, rsa.PrivateKey] = {}
        self._lock = threading.Lock()
        # operation counters: the Section 3.8 overhead benchmarks report
        # signatures/verifications per protocol round from these
        self.sign_count = 0
        self.verify_count = 0

    @property
    def key_bits(self) -> int:
        return self._key_bits

    def register(self, asn: str) -> rsa.PublicKey:
        """Create (or return the existing) keypair for AS ``asn``.

        Generation draws from a stream forked off immutable seed
        material, so concurrent or worker-side registration yields the
        same keypair the parent would have generated.
        """
        if asn not in self._private:
            stream = self._rng.fork(f"as:{asn}")
            keypair = rsa.generate_keypair(self._key_bits, stream.bytes)
            with self._lock:
                self._private.setdefault(asn, keypair)
        return self._private[asn].public

    def register_all(self, asns: Iterable[str]) -> None:
        for asn in asns:
            self.register(asn)

    def private_key(self, asn: str) -> rsa.PrivateKey:
        """The private key — only the AS itself (or a test) may call this."""
        try:
            return self._private[asn]
        except KeyError:
            raise UnknownKeyError(asn) from None

    def public_key(self, asn: str) -> rsa.PublicKey:
        try:
            return self._private[asn].public
        except KeyError:
            raise UnknownKeyError(asn) from None

    def known(self) -> tuple:
        return tuple(sorted(self._private))

    def __contains__(self, asn: str) -> bool:
        return asn in self._private

    def sign(self, asn: str, message: bytes) -> bytes:
        """Sign ``message`` with AS ``asn``'s private key."""
        self.sign_count += 1
        return rsa.sign(self.private_key(asn), message)

    def verify(self, asn: str, message: bytes, signature: bytes) -> bool:
        """Verify a signature against AS ``asn``'s registered public key."""
        self.verify_count += 1
        try:
            key = self.public_key(asn)
        except UnknownKeyError:
            return False
        return rsa.verify(key, message, signature)

    # -- worker support -----------------------------------------------------

    def worker_view(self) -> "KeyStore":
        """A keystore sharing this store's key table but with fresh
        operation counters.

        Workers sign and verify through their view; the caller merges
        each view's counts back with :meth:`add_counts` in deterministic
        order, so parallel runs report the same totals as serial ones.
        """
        view = KeyStore.__new__(KeyStore)
        view._rng = self._rng
        view._key_bits = self._key_bits
        view._private = self._private
        view._lock = self._lock
        view.sign_count = 0
        view.verify_count = 0
        return view

    def add_counts(self, signatures: int, verifications: int) -> None:
        """Fold a worker view's operation counts into this store."""
        self.sign_count += signatures
        self.verify_count += verifications

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle; workers get their own
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
