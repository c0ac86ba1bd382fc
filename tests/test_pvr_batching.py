"""Tests for batched disclosures (Section 3.8's burst optimization)."""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.commitment import Opening
from repro.promises.spec import ShortestRoute
from repro.pvr.batching import BatchedDisclosure, BatchingProver, DisclosureBatch
from repro.pvr.commitments import commit_bits
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.minimum import HonestProver
from repro.pvr.session import PromiseSpec

PFX = Prefix.parse("10.0.0.0/8")


def route(neighbor, length):
    return Route(prefix=PFX,
                 as_path=ASPath(tuple(f"T{i}" for i in range(length))),
                 neighbor=neighbor)


ROUTES = {"N1": route("N1", 4), "N2": route("N2", 2), "N3": route("N3", 6)}


SPEC = PromiseSpec(promise=ShortestRoute(), prover="A",
                   providers=("N1", "N2", "N3"), recipients=("B",),
                   max_length=8)


@pytest.fixture
def committed(keystore, rng):
    keystore.register("A")
    vector, openings = commit_bits(
        keystore, "A", "pvr-min", 1, (0, 1, 1, 1), rng.bytes
    )
    return vector, openings


class TestDisclosureBatch:
    def test_extracted_disclosure_verifies(self, keystore, committed):
        vector, openings = committed
        batch = DisclosureBatch(keystore, "A", "pvr-min", 1, openings,
                                [1, 2, 3, 4])
        for index in (1, 2, 3, 4):
            disclosure = batch.extract(index)
            assert disclosure.verify_signature(keystore)
            assert disclosure.matches(vector)
            assert disclosure.opening.value == (0 if index == 1 else 1)

    def test_tampered_opening_fails_attribution(self, keystore, committed):
        vector, openings = committed
        batch = DisclosureBatch(keystore, "A", "pvr-min", 1, openings, [2])
        genuine = batch.extract(2)
        flipped = Opening(label=genuine.opening.label,
                          value=1 - genuine.opening.value,
                          nonce=genuine.opening.nonce)
        forged = BatchedDisclosure(
            author=genuine.author, topic=genuine.topic, round=genuine.round,
            index=genuine.index, opening=flipped, proof=genuine.proof,
            root=genuine.root, root_signature=genuine.root_signature,
        )
        assert not forged.verify_signature(keystore)

    def test_cross_round_root_rejected(self, keystore, committed):
        vector, openings = committed
        batch = DisclosureBatch(keystore, "A", "pvr-min", 1, openings, [2])
        genuine = batch.extract(2)
        relabeled = BatchedDisclosure(
            author=genuine.author, topic=genuine.topic, round=2,
            index=genuine.index, opening=genuine.opening, proof=genuine.proof,
            root=genuine.root, root_signature=genuine.root_signature,
        )
        assert not relabeled.verify_signature(keystore)

    def test_foreign_root_signature_rejected(self, keystore, committed):
        vector, openings = committed
        keystore.register("MALLORY")
        batch = DisclosureBatch(keystore, "MALLORY", "pvr-min", 1, openings,
                                [2])
        stolen = batch.extract(2)
        relabeled = BatchedDisclosure(
            author="A", topic=stolen.topic, round=stolen.round,
            index=stolen.index, opening=stolen.opening, proof=stolen.proof,
            root=stolen.root, root_signature=stolen.root_signature,
        )
        assert not relabeled.verify_signature(keystore)


class TestBatchingProver:
    def test_round_verifies_everywhere(self, keystore):
        report = VerificationSession(
            keystore, SPEC, round=1, prover=BatchingProver(keystore)
        ).run(ROUTES)
        assert report.accuracy_ok
        assert report.confidentiality_ok

    def test_fewer_signatures_than_plain_prover(self, keystore):
        before = keystore.sign_count
        VerificationSession(
            keystore, SPEC, round=2, prover=HonestProver(keystore)
        ).run(ROUTES)
        plain = keystore.sign_count - before
        before = keystore.sign_count
        VerificationSession(
            keystore, SPEC, round=3, prover=BatchingProver(keystore)
        ).run(ROUTES)
        batched = keystore.sign_count - before
        # plain signs each disclosure (k providers + L recipient bits);
        # batched signs one root instead
        assert batched < plain
        assert plain - batched >= SPEC.max_length

    def test_adversarial_batching_still_detected(self, keystore):
        """Batching is an optimization, not a loophole: an understating
        prover using batches is caught identically."""
        from repro.pvr.adversary import UnderstatingProver

        class UnderstatingBatcher(BatchingProver, UnderstatingProver):
            pass

        report = VerificationSession(
            keystore, SPEC, round=4, prover=UnderstatingBatcher(keystore)
        ).run(ROUTES)
        assert report.violation_found()
        assert report.adjudicate(Judge(keystore)).evidence_ok()

    def test_evidence_with_batched_disclosures_validates(self, keystore):
        """Evidence objects carrying BatchedDisclosure components convince
        the judge (the attribution chain goes through the batch root)."""
        from repro.pvr.adversary import LyingSuppressor

        class LyingBatcher(BatchingProver, LyingSuppressor):
            pass

        report = VerificationSession(
            keystore, SPEC, round=5, prover=LyingBatcher(keystore)
        ).run(ROUTES)
        evidence = report.all_evidence()
        assert evidence
        judge = Judge(keystore)
        assert all(judge.validate(item) for item in evidence)
