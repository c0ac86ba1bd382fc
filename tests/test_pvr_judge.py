"""Tests for the judge: evidence validation and complaint resolution."""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.commitment import Opening
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import NoDisclosureProver, NoReceiptProver
from repro.pvr.commitments import make_disclosure
from repro.pvr.engine import VerificationSession
from repro.pvr.evidence import BadOpeningEvidence, Complaint
from repro.pvr.judge import DISMISSED, UPHELD, Judge
from repro.pvr.minimum import HonestProver
from repro.pvr.session import PromiseSpec

PFX = Prefix.parse("10.0.0.0/8")


def route(neighbor, length):
    return Route(prefix=PFX,
                 as_path=ASPath(tuple(f"T{i}" for i in range(length))),
                 neighbor=neighbor)


@pytest.fixture
def spec():
    return PromiseSpec(promise=ShortestRoute(), prover="A",
                       providers=("N1", "N2"), recipients=("B",),
                       max_length=6)


@pytest.fixture
def routes():
    return {"N1": route("N1", 3), "N2": route("N2", 2)}


@pytest.fixture
def judge(keystore):
    return Judge(keystore)


class TestComplaintResolution:
    def test_honest_prover_dismisses_receipt_complaint(
        self, keystore, spec, routes, judge
    ):
        """Accuracy: if N1 falsely complains, honest A produces the receipt
        and is cleared."""
        honest = VerificationSession(keystore, spec).run(routes)
        receipt = honest.transcript.detail.provider_views["N1"].receipt
        complaint = Complaint(accuser="N1", accused="A", round=1,
                              claim="missing-receipt")
        ruling = judge.resolve_complaint(complaint, receipt)
        assert ruling.outcome == DISMISSED

    def test_withholding_prover_upheld(self, keystore, spec, routes, judge):
        report = VerificationSession(
            keystore, spec, prover=NoReceiptProver(keystore)
        ).run(routes)
        complaint = next(
            c for c in report.all_complaints() if c.claim == "missing-receipt"
        )
        # the guilty prover has nothing valid to produce
        ruling = judge.resolve_complaint(complaint, None)
        assert ruling.outcome == UPHELD

    def test_disclosure_complaint_dismissed_with_valid_response(
        self, keystore, spec, routes, judge
    ):
        withheld = VerificationSession(
            keystore, spec, prover=NoDisclosureProver(keystore)
        ).run(routes)
        complaint = next(
            c for c in withheld.all_complaints()
            if c.claim == "missing-disclosure"
        )
        # an honest A would now produce the disclosure; reconstruct it from
        # a parallel honest run with identical nonce stream
        from repro.util.rng import DeterministicRandom
        honest = VerificationSession(
            keystore, spec,
            prover=HonestProver(keystore, DeterministicRandom(3).bytes),
        ).run(routes)
        expected_index = complaint.context[0]
        response = next(
            d for d in honest.transcript.detail.recipient_view.disclosures
            if d.index == expected_index
        )
        vector = honest.transcript.detail.recipient_view.vector
        ruling = judge.resolve_complaint(complaint, response, vector=vector)
        assert ruling.outcome == DISMISSED

    def test_disclosure_complaint_answered_with_wrong_bit_upheld(
        self, keystore, spec, routes, judge
    ):
        report = VerificationSession(
            keystore, spec, prover=NoDisclosureProver(keystore)
        ).run(routes)
        complaint = next(
            c for c in report.all_complaints()
            if c.claim == "missing-disclosure"
        )
        wrong_index = complaint.context[0] + 1
        honest = VerificationSession(keystore, spec).run(routes)
        response = next(
            d for d in honest.transcript.detail.recipient_view.disclosures
            if d.index == wrong_index
        )
        ruling = judge.resolve_complaint(complaint, response)
        assert ruling.outcome == UPHELD

    def test_garbage_opening_response_becomes_evidence(
        self, keystore, spec, routes, judge
    ):
        report = VerificationSession(keystore, spec).run(routes)
        vector = report.transcript.detail.recipient_view.vector
        genuine = report.transcript.detail.recipient_view.disclosures[0]
        forged_opening = Opening(
            label=genuine.opening.label,
            value=1 - genuine.opening.value,
            nonce=genuine.opening.nonce,
        )
        response = make_disclosure(
            keystore, "A", spec.topic, report.round,
            genuine.index, forged_opening,
        )
        complaint = Complaint(
            accuser="N1", accused="A", round=report.round,
            claim="missing-disclosure", context=(genuine.index,),
        )
        ruling = judge.resolve_complaint(complaint, response, vector=vector)
        assert ruling.outcome == UPHELD
        assert ruling.derived_evidence is not None
        assert judge.validate(ruling.derived_evidence)

    def test_commitment_complaint(self, keystore, spec, routes, judge):
        report = VerificationSession(keystore, spec).run(routes)
        vector = report.transcript.detail.recipient_view.vector
        complaint = Complaint(accuser="B", accused="A", round=report.round,
                              claim="missing-commitment")
        assert judge.resolve_complaint(complaint, vector).outcome == DISMISSED
        assert judge.resolve_complaint(complaint, None).outcome == UPHELD

    def test_attestation_complaint(self, keystore, spec, routes, judge):
        report = VerificationSession(keystore, spec).run(routes)
        attestation = report.transcript.detail.recipient_view.attestation
        complaint = Complaint(accuser="B", accused="A", round=report.round,
                              claim="missing-attestation")
        assert judge.resolve_complaint(complaint, attestation).outcome == DISMISSED

    def test_unknown_claim_upheld(self, judge):
        complaint = Complaint(accuser="X", accused="Y", round=1,
                              claim="weird-claim")
        assert judge.resolve_complaint(complaint, object()).outcome == UPHELD

    def test_receipt_for_wrong_provider_upheld(self, keystore, spec,
                                               routes, judge):
        report = VerificationSession(keystore, spec).run(routes)
        n2_receipt = report.transcript.detail.provider_views["N2"].receipt
        complaint = Complaint(accuser="N1", accused="A", round=report.round,
                              claim="missing-receipt")
        ruling = judge.resolve_complaint(complaint, n2_receipt)
        assert ruling.outcome == UPHELD


class TestBatchedComplaintResolution:
    """Section 3.8 rounds: an honest batched prover answers with the
    disclosure it issued under its batch signature, and is judged like
    any other."""

    @staticmethod
    def batched(keystore, spec, routes, **options):
        report = VerificationSession(
            keystore, spec, batching=True, **options
        ).run(routes)
        return report, report.transcript.detail

    def test_batched_answer_dismisses_false_complaint(
        self, keystore, spec, routes, judge
    ):
        report, detail = self.batched(keystore, spec, routes)
        answer = detail.provider_views["N1"].disclosure
        for claim, context in (
            ("missing-disclosure", (answer.index,)),
            ("wrong-bit-disclosed", (answer.index + 1, answer.index)),
            ("unsigned-disclosure", ()),
        ):
            complaint = Complaint(accuser="N1", accused="A",
                                  round=report.round, claim=claim,
                                  context=context)
            ruling = judge.resolve_complaint(
                complaint, answer, vector=detail.recipient_view.vector
            )
            assert ruling.outcome == DISMISSED, claim

    def test_batched_answer_not_opening_the_vector_becomes_evidence(
        self, keystore, spec, routes, judge
    ):
        from repro.util.rng import DeterministicRandom

        report, detail = self.batched(keystore, spec, routes)
        # validly signed by A for the same round and bit, but over
        # another nonce stream: it cannot open this round's commitment
        _, other = self.batched(
            keystore, spec, routes,
            random_bytes=DeterministicRandom(3).bytes,
        )
        answer = other.provider_views["N1"].disclosure
        complaint = Complaint(accuser="N1", accused="A", round=report.round,
                              claim="missing-disclosure",
                              context=(answer.index,))
        ruling = judge.resolve_complaint(
            complaint, answer, vector=detail.recipient_view.vector
        )
        assert ruling.outcome == UPHELD
        assert isinstance(ruling.derived_evidence, BadOpeningEvidence)
        assert judge.validate(ruling.derived_evidence)

    def test_batched_answer_for_the_wrong_bit_upheld(
        self, keystore, spec, routes, judge
    ):
        report, detail = self.batched(keystore, spec, routes)
        answer = detail.provider_views["N1"].disclosure
        complaint = Complaint(accuser="N1", accused="A", round=report.round,
                              claim="missing-disclosure",
                              context=(answer.index + 1,))
        ruling = judge.resolve_complaint(complaint, answer)
        assert ruling.outcome == UPHELD
        assert ruling.reason == "disclosure answers the wrong bit"
