"""Detection/Evidence/Accuracy against every adversary class.

This is the executable version of the paper's Section 2.3 property table:
each Byzantine prover must be detected by the parties the protocol
analysis predicts, with judge-convincing evidence wherever the mechanism
admits it.
"""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import (
    BadOpeningProver,
    EquivocatingProver,
    ForgedProvenanceProver,
    LeakyProver,
    LongerRouteProver,
    LyingSuppressor,
    NoDisclosureProver,
    NonMonotoneProver,
    NoReceiptProver,
    SuppressingProver,
    UnderstatingProver,
)
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.session import PromiseSpec

PFX = Prefix.parse("10.0.0.0/8")


def route(neighbor, length):
    return Route(prefix=PFX,
                 as_path=ASPath(tuple(f"T{i}" for i in range(length))),
                 neighbor=neighbor)


@pytest.fixture
def spec():
    return PromiseSpec(promise=ShortestRoute(), prover="A",
                       providers=("N1", "N2", "N3"), recipients=("B",),
                       max_length=8)


@pytest.fixture
def routes():
    return {"N1": route("N1", 4), "N2": route("N2", 2), "N3": route("N3", 6)}


@pytest.fixture
def judge(keystore):
    return Judge(keystore)


class TestLongerRoute:
    def test_recipient_detects_shorter_available(self, keystore, spec,
                                                  routes, judge):
        report = VerificationSession(
            keystore, spec, prover=LongerRouteProver(keystore)
        ).run(routes)
        assert report.detection_ok(deviated=True)
        assert "B" in report.detecting_parties()
        kinds = {v.kind for v in report.verdicts["B"].violations}
        assert "shorter-available" in kinds
        assert report.adjudicate(judge).evidence_ok()


class TestUnderstating:
    def test_cheated_provider_detects_false_bit(self, keystore, spec,
                                                 routes, judge):
        report = VerificationSession(
            keystore, spec, prover=UnderstatingProver(keystore)
        ).run(routes)
        assert report.detection_ok(deviated=True)
        # N2 (shortest route, length 2) was erased from the bit vector
        assert "N2" in report.detecting_parties()
        kinds = {v.kind for v in report.verdicts["N2"].violations}
        assert "false-bit" in kinds
        assert report.adjudicate(judge).evidence_ok()

    def test_recipient_alone_cannot_detect(self, keystore, spec, routes):
        # the forged bits are self-consistent from B's standpoint: this is
        # exactly why the paper needs condition 3 verified by the Ni
        report = VerificationSession(
            keystore, spec, prover=UnderstatingProver(keystore)
        ).run(routes)
        assert report.verdicts["B"].ok


class TestSuppression:
    def test_recipient_detects_suppression(self, keystore, spec, routes,
                                           judge):
        report = VerificationSession(
            keystore, spec, prover=SuppressingProver(keystore)
        ).run(routes)
        assert "B" in report.detecting_parties()
        kinds = {v.kind for v in report.verdicts["B"].violations}
        assert "suppression" in kinds
        assert report.adjudicate(judge).evidence_ok()

    def test_lying_suppressor_caught_by_providers(self, keystore, spec,
                                                  routes, judge):
        report = VerificationSession(
            keystore, spec, prover=LyingSuppressor(keystore)
        ).run(routes)
        assert report.detection_ok(deviated=True)
        # every provider that announced sees b_|ri| = 0
        for provider in ("N1", "N2", "N3"):
            kinds = {v.kind for v in report.verdicts[provider].violations}
            assert "false-bit" in kinds
        assert report.adjudicate(judge).evidence_ok()


class TestNonMonotone:
    def test_recipient_detects(self, keystore, spec, routes, judge):
        report = VerificationSession(
            keystore, spec, prover=NonMonotoneProver(keystore)
        ).run(routes)
        kinds = {v.kind for v in report.verdicts["B"].violations}
        assert "non-monotone" in kinds
        assert report.adjudicate(judge).evidence_ok()


class TestEquivocation:
    def test_gossip_detects(self, keystore, spec, routes, judge):
        report = VerificationSession(
            keystore, spec, prover=EquivocatingProver(keystore)
        ).run(routes)
        assert report.equivocations
        assert report.adjudicate(judge).evidence_ok()

    def test_without_gossip_split_view_survives_cross_check(
        self, keystore, spec, routes
    ):
        """Ablation D4: without gossip the equivocation itself goes
        unnoticed (no equivocation records)."""
        report = VerificationSession(
            keystore, spec,
            prover=EquivocatingProver(keystore), gossip=False,
        ).run(routes)
        assert report.equivocations == ()
        # note: this particular equivocator also suppresses toward B, so
        # B's local checks still flag *something* -- but the commitment
        # split itself is invisible without gossip
        assert all(
            v.kind != "equivocation"
            for verdict in report.verdicts.values()
            for v in verdict.violations
        )


class TestBadOpening:
    def test_providers_get_transferable_evidence(self, keystore, spec,
                                                 routes, judge):
        report = VerificationSession(
            keystore, spec, prover=BadOpeningProver(keystore)
        ).run(routes)
        detecting = report.detecting_parties()
        assert set(detecting) & {"N1", "N2", "N3"}
        for party in detecting:
            for violation in report.verdicts[party].violations:
                assert violation.kind == "bad-opening"
                assert violation.transferable()
        assert report.adjudicate(judge).evidence_ok()


class TestWithheldMessages:
    def test_missing_receipt_yields_complaint(self, keystore, spec, routes):
        report = VerificationSession(
            keystore, spec, prover=NoReceiptProver(keystore)
        ).run(routes)
        assert report.detection_ok(deviated=True)
        claims = {c.claim for c in report.all_complaints()}
        assert "missing-receipt" in claims

    def test_missing_disclosure_yields_complaint(self, keystore, spec,
                                                 routes):
        report = VerificationSession(
            keystore, spec, prover=NoDisclosureProver(keystore)
        ).run(routes)
        claims = {c.claim for c in report.all_complaints()}
        assert "missing-disclosure" in claims


class TestForgedProvenance:
    def test_recipient_detects(self, keystore, spec, routes, judge):
        forged = route("N9", 1)
        report = VerificationSession(
            keystore, spec,
            prover=ForgedProvenanceProver(keystore, forged, "N2"),
        ).run(routes)
        kinds = {v.kind for v in report.verdicts["B"].violations}
        assert "bad-provenance" in kinds
        assert report.adjudicate(judge).evidence_ok()


class TestLeakyProver:
    def test_verifiers_see_nothing_wrong(self, keystore, spec, routes):
        report = VerificationSession(
            keystore, spec, prover=LeakyProver(keystore)
        ).run(routes)
        assert not report.violation_found()

    def test_confidentiality_checker_flags_it(self, keystore, spec, routes):
        report = VerificationSession(
            keystore, spec, prover=LeakyProver(keystore)
        ).run(routes)
        assert not report.confidentiality_ok


class TestAccuracyAgainstFabrication:
    """Accuracy: an honest AS can disprove fabricated evidence."""

    def test_fabricated_false_bit_fails_at_judge(self, keystore, spec,
                                                 routes, judge):
        # run an honest round, then try to frame A by reusing its honest
        # disclosure of a zero bit with an unrelated announcement
        from repro.pvr.evidence import FalseBitEvidence
        from repro.pvr.announcements import make_announcement

        report = VerificationSession(keystore, spec).run(routes)
        view = report.transcript.detail.recipient_view
        zero_disclosures = [
            d for d in view.disclosures if d.opening.value == 0
        ]
        assert zero_disclosures
        # N1 fabricates an announcement of length 1 "from this round" --
        # but A never receipted it, and the accuser cannot forge A's
        # receipt signature; reusing a receipt for a different
        # announcement fails the digest check
        fake_ann = make_announcement(keystore, route("N1", 1), "N1", "A",
                                     report.round)
        honest_receipt = report.transcript.detail.provider_views["N1"].receipt
        fabricated = FalseBitEvidence(
            vector=view.vector,
            disclosure=zero_disclosures[0],
            announcement=fake_ann,
            receipt=honest_receipt,
        )
        assert not judge.validate(fabricated)

    def test_fabricated_shorter_available_fails(self, keystore, spec,
                                                routes, judge):
        from repro.pvr.evidence import ShorterAvailableEvidence

        report = VerificationSession(keystore, spec).run(routes)
        view = report.transcript.detail.recipient_view
        # accuse using a disclosure of a zero bit (value must be 1)
        zero = [d for d in view.disclosures if d.opening.value == 0][0]
        fabricated = ShorterAvailableEvidence(
            vector=view.vector, attestation=view.attestation, disclosure=zero,
        )
        assert not judge.validate(fabricated)

    def test_fabricated_suppression_fails(self, keystore, spec, routes,
                                          judge):
        from repro.pvr.evidence import SuppressionEvidence

        report = VerificationSession(keystore, spec).run(routes)
        view = report.transcript.detail.recipient_view
        one = [d for d in view.disclosures if d.opening.value == 1][0]
        fabricated = SuppressionEvidence(
            vector=view.vector, attestation=view.attestation, disclosure=one,
        )
        # the attestation shows a route was exported, so suppression fails
        assert not judge.validate(fabricated)
