"""Tests for batch signatures (Section 3.8's burst optimization).

A prover built over a :class:`~repro.crypto.batch.RoundSigner` signs
every message of its round as a salted leaf under one root signature;
each signed object still verifies, and convicts, on its own.
"""

import dataclasses

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.batch import (
    BatchSignature,
    RoundSigner,
    UnsealedSignatureError,
    leaf_payload,
)
from repro.crypto.commitment import Opening
from repro.crypto.keystore import KeyStore
from repro.crypto.merkle import leaf_hash
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LyingSuppressor, UnderstatingProver
from repro.pvr.commitments import (
    attestation_bytes,
    commit_bits,
    make_disclosure,
)
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.minimum import HonestProver
from repro.pvr.session import PromiseSpec
from repro.util.encoding import canonical_encode
from repro.util.rng import DeterministicRandom

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


def batched_disclosures(keystore, author, openings, indices, rng):
    signer = RoundSigner(keystore, author, rng.bytes)
    disclosures = [
        make_disclosure(signer, author, "pvr-min", 1, index,
                        openings.opening(index))
        for index in indices
    ]
    signer.seal()
    return disclosures


class TestBatchSignature:
    def test_extracted_disclosure_verifies(self, keystore, committed, rng):
        vector, openings = committed
        for disclosure in batched_disclosures(
            keystore, "A", openings, (1, 2, 3, 4), rng
        ):
            assert isinstance(disclosure.signature, BatchSignature)
            assert disclosure.verify_signature(keystore)
            assert disclosure.matches(vector)
            assert disclosure.opening.value == (
                0 if disclosure.index == 1 else 1
            )

    def test_tampered_opening_fails_attribution(self, keystore, committed,
                                                rng):
        _, openings = committed
        genuine = batched_disclosures(keystore, "A", openings, (2, 3), rng)[0]
        flipped = Opening(label=genuine.opening.label,
                          value=1 - genuine.opening.value,
                          nonce=genuine.opening.nonce)
        forged = dataclasses.replace(genuine, opening=flipped)
        assert not forged.verify_signature(keystore)

    def test_cross_round_root_rejected(self, keystore, committed, rng):
        _, openings = committed
        genuine = batched_disclosures(keystore, "A", openings, (2, 3), rng)[0]
        assert not dataclasses.replace(genuine, round=2).verify_signature(
            keystore
        )

    def test_altered_salt_rejected(self, keystore, committed, rng):
        _, openings = committed
        genuine = batched_disclosures(keystore, "A", openings, (2, 3), rng)[0]
        salt = bytes([genuine.signature.salt[0] ^ 1]) + genuine.signature.salt[1:]
        resalted = dataclasses.replace(
            genuine, signature=dataclasses.replace(genuine.signature, salt=salt)
        )
        assert not resalted.verify_signature(keystore)

    def test_aliased_index_rejected(self, keystore, committed, rng):
        """An index past the path's depth folds like its low bits; it
        is refused rather than accepted as a second form."""
        _, openings = committed
        genuine = batched_disclosures(keystore, "A", openings, (2, 3), rng)[0]
        signature = genuine.signature
        for index in (signature.index + 2 ** len(signature.siblings), -1):
            aliased = dataclasses.replace(signature, index=index)
            assert not dataclasses.replace(
                genuine, signature=aliased
            ).verify_signature(keystore)

    def test_swapped_root_rejected(self, keystore, committed, rng):
        """A leaf moved under another of A's signed roots fails: its
        path does not lead there."""
        _, openings = committed
        first = batched_disclosures(keystore, "A", openings, (2, 3), rng)[0]
        other = batched_disclosures(keystore, "A", openings, (2, 3), rng)[0]
        assert other.signature.root != first.signature.root
        swapped = dataclasses.replace(
            first.signature,
            root=other.signature.root,
            root_signature=other.signature.root_signature,
        )
        assert not dataclasses.replace(
            first, signature=swapped
        ).verify_signature(keystore)

    def test_foreign_root_signature_rejected(self, keystore, committed, rng):
        _, openings = committed
        keystore.register("MALLORY")
        stolen = batched_disclosures(
            keystore, "MALLORY", openings, (2, 3), rng
        )[0]
        assert stolen.verify_signature(keystore)
        assert not dataclasses.replace(stolen, author="A").verify_signature(
            keystore
        )

    def test_one_rsa_verification_per_check(self, keystore, committed, rng):
        _, openings = committed
        disclosure = batched_disclosures(keystore, "A", openings, (2,), rng)[0]
        before = keystore.verify_count
        assert disclosure.verify_signature(keystore)
        assert not dataclasses.replace(disclosure, index=3).verify_signature(
            keystore
        )
        assert keystore.verify_count - before == 2

    def test_unsealed_handle_fails_loud(self, keystore):
        keystore.register("A")
        signer = RoundSigner(keystore, "A")
        handle = signer.sign("A", b"message")
        for use in (
            lambda: canonical_encode(handle),
            lambda: hash(handle),
            lambda: handle == handle,
            lambda: keystore.verify("A", b"message", handle),
        ):
            with pytest.raises(UnsealedSignatureError):
                use()
        signer.seal()
        assert keystore.verify("A", b"message", handle)
        assert handle == handle and hash(handle) == hash(handle)
        with pytest.raises(RuntimeError):
            signer.sign("A", b"too late")
        with pytest.raises(ValueError):
            RoundSigner(keystore, "A").sign("B", b"not my key")

    def test_salted_leaves_replay_byte_identically(self, keystore):
        keystore.register("A")

        def sealed(seed):
            signer = RoundSigner(keystore, "A", DeterministicRandom(seed).bytes)
            handles = [signer.sign("A", bytes([i])) for i in range(3)]
            signer.seal()
            return handles

        first, again, other = sealed(7), sealed(7), sealed(8)
        assert [canonical_encode(h) for h in first] == [
            canonical_encode(h) for h in again
        ]
        assert repr(first) == repr(again)
        assert all(len(h.salt) >= 16 for h in first)
        assert first[0].salt != other[0].salt
        assert len({h.salt for h in first}) == 3


class TestBatchedRound:
    def test_round_verifies_everywhere(self, keystore):
        report = VerificationSession(
            keystore, SPEC, round=1, batching=True
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
            keystore, SPEC, round=3,
            prover=HonestProver(RoundSigner(keystore, "A")),
        ).run(ROUTES)
        batched = keystore.sign_count - before
        # besides the k announcements, plain signs k receipts, k + L
        # disclosures, the statement and the attestation; batched signs
        # one root for all of them
        k = len(ROUTES)
        assert plain == k + (2 * k + SPEC.max_length + 2)
        assert batched == k + 1

    def test_adversarial_batching_still_detected(self, keystore):
        """Batching is an optimization, not a loophole: an understating
        prover signing in a batch is caught identically."""
        report = VerificationSession(
            keystore, SPEC, round=4,
            prover=UnderstatingProver(RoundSigner(keystore, "A")),
        ).run(ROUTES)
        assert report.violation_found()
        assert report.adjudicate(Judge(keystore)).evidence_ok()

    def test_evidence_with_batched_disclosures_validates(self, keystore):
        """Evidence whose every component carries a batch signature
        convinces the judge (the attribution chain goes through the
        signed root)."""
        report = VerificationSession(
            keystore, SPEC, round=5,
            prover=LyingSuppressor(RoundSigner(keystore, "A")),
        ).run(ROUTES)
        evidence = report.all_evidence()
        assert evidence
        assert all(
            isinstance(item.receipt.signature, BatchSignature)
            for item in evidence
        )
        judge = Judge(keystore)
        assert all(judge.validate(item) for item in evidence)


class TestSaltedSiblings:
    """Confidentiality of the authentication paths: a provider holds
    sibling digests of leaves it may not see, so it must not be able to
    test a guess about one (say, A's export) by hashing it."""

    def test_dictionary_attack_on_the_attestation_fails(self):
        keystore = KeyStore(seed=5, key_bits=512)
        report = VerificationSession(
            keystore, SPEC, round=9, batching=True,
            random_bytes=DeterministicRandom(9).bytes,
        ).run(ROUTES)
        assert report.confidentiality_ok is True
        detail = report.transcript.detail
        attestation = detail.recipient_view.attestation

        # every attestation the providers could guess: one per announced
        # route (the real export among them), plus "nothing exported"
        guesses = [
            attestation_bytes("A", "B", report.round, None, None)
        ] + [
            attestation_bytes(
                "A", "B", report.round, ann.route.exported_by("A"), ann
            )
            for ann in detail.announcements.values()
        ]
        assert attestation.signed_bytes() in guesses

        all_siblings = set()
        for provider in SPEC.providers:
            view = detail.provider_views[provider]
            held = [view.receipt.signature, view.vector.statement.signature,
                    view.disclosure.signature]
            siblings = {s for sig in held for s in sig.siblings}
            all_siblings |= siblings
            for salt in {sig.salt for sig in held}:
                for body in guesses:
                    guess = leaf_hash(leaf_payload("A", salt, body))
                    assert guess not in siblings, provider
                    assert leaf_hash(body) not in siblings, provider

        # the control: with the attestation's own salt the real export
        # does hash to a sibling some provider holds
        secret = attestation.signature.salt
        assert leaf_hash(
            leaf_payload("A", secret, attestation.signed_bytes())
        ) in all_siblings
