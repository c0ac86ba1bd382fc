"""Batched disclosures: Section 3.8's burst optimization, in-protocol.

"This overhead can be burdensome during BGP message bursts, but it seems
feasible to sign messages in batches, perhaps using a small MHT to reveal
batched routes individually."

A :class:`DisclosureBatch` collects all of a round's disclosure bodies
into a :class:`repro.crypto.merkle.BatchTree` and signs only the root.
Each recipient then gets a :class:`BatchedDisclosure` — the opening, its
Merkle membership proof, and the one root signature — which presents the
same interface as a :class:`repro.pvr.commitments.SignedDisclosure`
(``index`` / ``opening`` / ``verify_signature`` / ``matches``), so every
verifier and evidence class works unchanged.  The attribution argument is
identical: the opening is bound by the proof to a root the prover signed.

:class:`BatchingProver` is the drop-in minimum-protocol prover using one
signature for all of a round's disclosures instead of k + L of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.commitment import Opening
from repro.crypto.keystore import KeyStore
from repro.crypto.merkle import BatchTree, MerkleProof
from repro.pvr.commitments import (
    BitVectorOpenings,
    CommittedBitVector,
    disclosure_bytes,
)
from repro.pvr.minimum import (
    HonestProver,
    ProviderView,
    RecipientView,
    RoundConfig,
)
from repro.util.encoding import canonical_encode

_ROOT_DOMAIN = "pvr-disclosure-batch-root"


def _root_bytes(author: str, topic: str, round: int, root: bytes) -> bytes:
    return canonical_encode((_ROOT_DOMAIN, author, topic, round, root))


@dataclass(frozen=True)
class BatchedDisclosure:
    """One disclosure extracted from a signed batch.

    Interface-compatible with ``SignedDisclosure``: the signature check
    verifies the Merkle membership proof against the author's signed
    batch root instead of a per-item signature.
    """

    author: str
    topic: str
    round: int
    index: int
    opening: Opening
    proof: MerkleProof
    root: bytes
    root_signature: bytes

    def verify_signature(self, keystore: KeyStore) -> bool:
        """Attribution: proof payload is this disclosure's body, the proof
        reaches ``root``, and ``root`` carries the author's signature."""
        body = disclosure_bytes(
            self.author, self.topic, self.round, self.index, self.opening
        )
        if self.proof.payload != body:
            return False
        if not self.proof.verify(self.root):
            return False
        return keystore.verify(
            self.author,
            _root_bytes(self.author, self.topic, self.round, self.root),
            self.root_signature,
        )

    def matches(self, vector: CommittedBitVector) -> bool:
        from repro.crypto.commitment import verify_opening

        try:
            commitment = vector.commitment(self.index)
        except IndexError:
            return False
        return verify_opening(commitment, self.opening)

    def canonical(self) -> bytes:
        return canonical_encode(
            (
                "batched-disclosure",
                self.author,
                self.topic,
                self.round,
                self.index,
                self.opening,
                self.proof,
                self.root,
                self.root_signature,
            )
        )


class DisclosureBatch:
    """All of one round's disclosures under a single signature."""

    def __init__(
        self,
        keystore: KeyStore,
        author: str,
        topic: str,
        round: int,
        openings: BitVectorOpenings,
        indices: Sequence[int],
    ) -> None:
        self.author = author
        self.topic = topic
        self.round = round
        self._indices = list(dict.fromkeys(indices))  # stable de-dup
        self._openings = {i: openings.opening(i) for i in self._indices}
        bodies = [
            disclosure_bytes(author, topic, round, i, self._openings[i])
            for i in self._indices
        ]
        self._tree = BatchTree(bodies)
        self._root_signature = keystore.sign(
            author, _root_bytes(author, topic, round, self._tree.root)
        )

    @property
    def root(self) -> bytes:
        return self._tree.root

    def extract(self, index: int) -> BatchedDisclosure:
        """The disclosure for bit ``index``, with its membership proof."""
        position = self._indices.index(index)
        return BatchedDisclosure(
            author=self.author,
            topic=self.topic,
            round=self.round,
            index=index,
            opening=self._openings[index],
            proof=self._tree.prove(position),
            root=self._tree.root,
            root_signature=self._root_signature,
        )


class BatchingProver(HonestProver):
    """The honest minimum-protocol prover with batched disclosures.

    One round needs one commitment-statement signature, one attestation
    signature, one batch-root signature and one receipt per announcement
    — instead of an additional signature per disclosed bit.
    """

    def run(self, config: RoundConfig, announcements):
        accepted = self.accept_announcements(config, announcements)
        bits = self.compute_bits(config, accepted)
        from repro.pvr.commitments import commit_bits

        vector, openings = commit_bits(
            self.keystore, config.prover, config.topic, config.round, bits,
            self.random_bytes,
        )
        winner = self.choose_winner(config, accepted)

        # one batch covering every bit the round can possibly disclose,
        # bound by a single root signature
        batch = DisclosureBatch(
            self.keystore, config.prover, config.topic, config.round,
            openings, range(1, config.max_length + 1),
        )

        receipts = {
            provider: self.issue_receipt(config, ann)
            for provider, ann in accepted.items()
        }
        provider_views = {}
        for provider in config.providers:
            ann = accepted.get(provider)
            if ann is None:
                provider_views[provider] = ProviderView(vector=vector)
                continue
            index = len(ann.route.as_path)
            provider_views[provider] = ProviderView(
                receipt=receipts.get(provider),
                vector=vector,
                disclosure=batch.extract(index),
            )
        recipient_view = self._batched_recipient_view(
            config, winner, vector, batch
        )
        from repro.pvr.minimum import RoundTranscript

        return RoundTranscript(
            config=config,
            announcements=dict(announcements),
            provider_views=provider_views,
            recipient_view=recipient_view,
        )

    def _batched_recipient_view(self, config, winner, vector, batch):
        disclosures = tuple(
            batch.extract(index)
            for index in range(1, config.max_length + 1)
        )
        return RecipientView(
            vector=vector,
            attestation=self._attest(config, winner),
            disclosures=disclosures,
        )

