"""Merkle hash trees for commitment and selective disclosure (Section 3.6).

Two variants are provided:

* :class:`SparseMerkleTree` — the paper's structure-hiding tree.  Leaves
  are addressed by *prefix-free bitstrings* (rule/variable identifiers);
  the tree is the union of (a) instantiated leaves, (b) inner nodes on the
  paths from those leaves to the root, and (c) the immediate children of
  those inner nodes.  Children in class (c) that are not themselves
  instantiated are *blinded*: their "hash" is a fresh random bitstring.  A
  verifier holding a disclosure proof therefore cannot tell whether a
  sibling hash covers real vertices or nothing at all — which is exactly
  how the paper hides the presence or absence of unauthorized vertices.

* :class:`BatchTree` — the "small MHT" of Section 3.8 used to sign a burst
  of BGP updates with a single RSA operation while still being able to
  reveal routes individually.

Both produce :class:`MerkleProof` objects verified against the signed root.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.crypto.hashing import DIGEST_SIZE, hash_many
from repro.util.bitstrings import BitString, is_prefix_free

_LEAF = "repro.merkle.leaf"
_NODE = "repro.merkle.node"
_EMPTY = "repro.merkle.empty"


class MerkleError(Exception):
    """Raised on structurally invalid tree construction or proofs."""


def leaf_hash(payload: bytes) -> bytes:
    return hash_many(_LEAF, payload)


def node_hash(left: bytes, right: bytes) -> bytes:
    return hash_many(_NODE, left, right)


@dataclass(frozen=True)
class MerkleProof:
    """An authentication path from one leaf to the root.

    ``path`` gives the leaf's address (bit 0 = left, 1 = right, root
    first); ``siblings`` lists the sibling hash at each level, *leaf-most
    first*.  Verification folds the leaf hash upward and compares with the
    expected root.
    """

    path: BitString
    payload: bytes
    siblings: tuple

    def root(self) -> bytes:
        """Recompute the root implied by this proof."""
        if len(self.siblings) != len(self.path):
            raise MerkleError("sibling count does not match path length")
        current = leaf_hash(self.payload)
        # Fold from the leaf upward: the last path bit is the deepest.
        for bit, sibling in zip(reversed(self.path.bits), self.siblings):
            if bit == 0:
                current = node_hash(current, sibling)
            else:
                current = node_hash(sibling, current)
        return current

    def verify(self, expected_root: bytes) -> bool:
        try:
            return self.root() == expected_root
        except MerkleError:
            return False

    def canonical(self) -> bytes:
        from repro.util.encoding import canonical_encode

        return canonical_encode(
            (
                "merkle-proof",
                self.path.to_str(),
                self.payload,
                tuple(self.siblings),
            )
        )


class _Node:
    __slots__ = ("left", "right", "digest")

    def __init__(self) -> None:
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.digest: bytes | None = None


class SparseMerkleTree:
    """Structure-hiding sparse Merkle tree over prefix-free addresses.

    ``leaves`` maps each :class:`BitString` address to its payload bytes.
    Addresses must be mutually prefix-free: an address that prefixes
    another would make one leaf an inner node of the other's path.

    ``random_bytes`` supplies the blinding values for absent siblings; it
    defaults to the OS CSPRNG and is injected deterministically in tests.
    """

    def __init__(
        self,
        leaves: Mapping[BitString, bytes],
        random_bytes: Callable[[int], bytes] | None = None,
    ) -> None:
        addresses = list(leaves.keys())
        if not addresses:
            raise MerkleError("tree must contain at least one leaf")
        if len(set(addresses)) != len(addresses):
            raise MerkleError("duplicate leaf addresses")
        if not is_prefix_free(addresses):
            raise MerkleError("leaf addresses must be prefix-free")
        for address in addresses:
            if len(address) == 0:
                raise MerkleError("the empty address is reserved for the root")
        self._rand = random_bytes if random_bytes is not None else secrets.token_bytes
        self._leaves = {addr: bytes(payload) for addr, payload in leaves.items()}
        self._root = _Node()
        for address, payload in self._leaves.items():
            self._insert(address, payload)
        self._finalize(self._root)

    def _insert(self, address: BitString, payload: bytes) -> None:
        node = self._root
        for bit in address:
            if node.digest is not None:
                raise MerkleError("address passes through an existing leaf")
            if bit == 0:
                if node.left is None:
                    node.left = _Node()
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node()
                node = node.right
        if node.left is not None or node.right is not None:
            raise MerkleError("leaf address collides with an inner node")
        node.digest = leaf_hash(payload)

    def _finalize(self, node: _Node) -> bytes:
        """Fill in blinded siblings and compute digests bottom-up."""
        if node.digest is not None:
            return node.digest
        left = (
            self._finalize(node.left)
            if node.left is not None
            else self._blind()
        )
        right = (
            self._finalize(node.right)
            if node.right is not None
            else self._blind()
        )
        if node.left is None:
            node.left = _Node()
            node.left.digest = left
        if node.right is None:
            node.right = _Node()
            node.right.digest = right
        node.digest = node_hash(left, right)
        return node.digest

    def _blind(self) -> bytes:
        """A random value indistinguishable from a real subtree digest."""
        return hash_many(_EMPTY, self._rand(DIGEST_SIZE))

    @property
    def root(self) -> bytes:
        assert self._root.digest is not None
        return self._root.digest

    def payload(self, address: BitString) -> bytes:
        return self._leaves[address]

    def prove(self, address: BitString) -> MerkleProof:
        """Produce the disclosure proof for one leaf.

        The proof reveals the leaf payload and one sibling digest per
        level.  Because absent siblings were blinded at construction time,
        the proof leaks nothing about what else the tree contains.
        """
        if address not in self._leaves:
            raise MerkleError(f"no leaf at address {address!r}")
        node = self._root
        siblings: list[bytes] = []
        for bit in address:
            assert node.left is not None and node.right is not None
            if bit == 0:
                sibling, node = node.right, node.left
            else:
                sibling, node = node.left, node.right
            assert sibling.digest is not None
            siblings.append(sibling.digest)
        siblings.reverse()  # leaf-most first, as MerkleProof expects
        return MerkleProof(
            path=address,
            payload=self._leaves[address],
            siblings=tuple(siblings),
        )


class BatchTree:
    """Dense Merkle tree over an ordered batch of messages (Section 3.8).

    Signing the root of a :class:`BatchTree` amortizes one RSA signature
    over the whole burst; each message is later revealed with an
    O(log m) proof.  Leaves are indexed 0..m-1; the tree is padded to the
    next power of two with fixed padding leaves.
    """

    _PAD = b"repro.merkle.batch-pad"

    def __init__(self, messages: Iterable[bytes]) -> None:
        items = [bytes(m) for m in messages]
        if not items:
            raise MerkleError("batch must contain at least one message")
        self._messages = items
        size = 1
        while size < len(items):
            size *= 2
        self._size = size
        level = [leaf_hash(m) for m in items]
        level += [leaf_hash(self._PAD)] * (size - len(items))
        self._levels = [level]
        while len(level) > 1:
            level = [
                node_hash(level[i], level[i + 1])
                for i in range(0, len(level), 2)
            ]
            self._levels.append(level)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._messages)

    def prove(self, index: int) -> MerkleProof:
        """Membership proof for the ``index``-th message of the batch."""
        if not 0 <= index < len(self._messages):
            raise MerkleError(f"index {index} out of range")
        depth = self._size.bit_length() - 1
        siblings: list[bytes] = []
        position = index
        for level in self._levels[:-1]:
            siblings.append(level[position ^ 1])
            position //= 2
        return MerkleProof(
            path=BitString.from_int(index, depth) if depth else BitString(),
            payload=self._messages[index],
            siblings=tuple(siblings),
        )
