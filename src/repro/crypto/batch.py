"""Batch signatures: one RSA signature per author per round (Section 3.8).

"This overhead can be burdensome during BGP message bursts, but it seems
feasible to sign messages in batches, perhaps using a small MHT to reveal
batched routes individually."

A :class:`RoundSigner` stands in for the keystore of one author for one
round.  Each :meth:`RoundSigner.sign` hands out a :class:`BatchSignature`
at once; :meth:`RoundSigner.seal` then builds one
:class:`~repro.crypto.merkle.BatchTree` over the round's salted leaves,
signs its root once, and completes every handle with its authentication
path.  A sealed handle is a signature like any other:
:meth:`repro.crypto.keystore.KeyStore.verify` checks it against the
signed message alone, so every object carrying one stays independently
verifiable — and transferable as evidence.

Leaves are salted — ``H(domain, author, salt, message)`` with a fresh
salt per leaf — so a party holding sibling digests in its own paths
cannot test a guess about another leaf's message by hashing it.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.crypto.merkle import BatchTree, leaf_hash, node_hash
from repro.util.encoding import canonical_encode

SALT_SIZE = 16

_LEAF = "repro.batch-leaf"
_ROOT = "repro.batch-root"


class UnsealedSignatureError(RuntimeError):
    """A batch signature was encoded, hashed, compared or verified before
    its signer sealed the batch."""


def leaf_payload(author: str, salt: bytes, message: bytes) -> bytes:
    """The bytes a batch leaf hashes: domain, author, salt and message."""
    return canonical_encode((_LEAF, author, salt, message))


def root_message(author: str, root: bytes) -> bytes:
    """What the author's one RSA signature covers."""
    return canonical_encode((_ROOT, author, root))


@dataclass(frozen=True, eq=False)
class BatchSignature:
    """One message's signature inside an author's signed batch.

    ``siblings``, ``root`` and ``root_signature`` are filled in once,
    when the issuing :class:`RoundSigner` seals; until then the handle
    refuses to be encoded, hashed, compared or verified.
    """

    salt: bytes
    index: int
    siblings: Optional[Tuple[bytes, ...]] = None
    root: Optional[bytes] = None
    root_signature: Optional[bytes] = None

    def _sealed_fields(self) -> tuple:
        if self.root_signature is None:
            raise UnsealedSignatureError(
                f"batch signature #{self.index} used before its batch "
                "was sealed"
            )
        return (self.salt, self.index, self.siblings, self.root,
                self.root_signature)

    def __eq__(self, other) -> bool:
        mine = self._sealed_fields()
        if not isinstance(other, BatchSignature):
            return NotImplemented
        return mine == other._sealed_fields()

    def __hash__(self) -> int:
        return hash(self._sealed_fields())

    def canonical(self) -> bytes:
        return canonical_encode(("batch-signature",) + self._sealed_fields())

    def root_claim(
        self, author: str, message: bytes
    ) -> Tuple[Optional[bytes], bytes]:
        """``(signed root message, root signature)`` when ``message``,
        signed by ``author``, folds up this path to ``root``; the first
        item is None when it does not."""
        salt, index, siblings, root, root_signature = self._sealed_fields()
        digest = leaf_hash(leaf_payload(author, salt, message))
        for sibling in siblings:
            if index % 2 == 0:
                digest = node_hash(digest, sibling)
            else:
                digest = node_hash(sibling, digest)
            index //= 2
        if index != 0 or digest != root:
            return None, root_signature
        return root_message(author, root), root_signature


class RoundSigner:
    """One author's signatures for one round, paid for with one RSA
    signature.

    It takes the keystore's place for the author's prover: ``sign``
    returns a :class:`BatchSignature` handle, ``verify`` is the
    keystore's.  Salts come from ``random_bytes`` (the round's stream,
    so a replayed round is byte-identical).
    """

    def __init__(
        self,
        keystore,
        author: str,
        random_bytes: Callable[[int], bytes] | None = None,
    ) -> None:
        self.keystore = keystore
        self.author = author
        self._rand = random_bytes if random_bytes is not None else secrets.token_bytes
        self._pending: List[Tuple[BatchSignature, bytes]] = []
        self._sealed = False

    def sign(self, asn: str, message: bytes) -> BatchSignature:
        if asn != self.author:
            raise ValueError(f"{self.author}'s round signer cannot sign for {asn}")
        if self._sealed:
            raise RuntimeError(f"{self.author}'s round batch is already sealed")
        handle = BatchSignature(salt=self._rand(SALT_SIZE), index=len(self._pending))
        self._pending.append((handle, message))
        return handle

    def verify(self, asn: str, message: bytes, signature) -> bool:
        return self.keystore.verify(asn, message, signature)

    def seal(self) -> None:
        """Sign the batch root and complete every handed-out signature.
        An empty batch signs nothing, so sealing twice is a no-op."""
        self._sealed = True
        if not self._pending:
            return
        tree = BatchTree(
            leaf_payload(self.author, handle.salt, message)
            for handle, message in self._pending
        )
        root_signature = self.keystore.sign(
            self.author, root_message(self.author, tree.root)
        )
        for handle, _ in self._pending:
            object.__setattr__(handle, "siblings", tree.prove(handle.index).siblings)
            object.__setattr__(handle, "root", tree.root)
            object.__setattr__(handle, "root_signature", root_signature)
        self._pending.clear()
