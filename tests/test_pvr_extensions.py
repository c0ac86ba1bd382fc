"""Tests for the Section 2 promise extensions: promise 3 (within-k
latitude, ``WithinKHops`` → ``RoundConfig.slack``) and promise 4
(cross-recipient consistency via attestation gossip)."""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.promises.spec import NoLongerThanOthers, WithinKHops
from repro.pvr.crosscheck import (
    cross_check,
    discriminating_chooser,
    honest_chooser,
    withholding_chooser,
)
from repro.pvr.engine import VerificationSession
from repro.pvr.evidence import UnequalTreatmentEvidence
from repro.pvr.judge import Judge
from repro.pvr.minimum import HonestProver, RoundConfig
from repro.pvr.session import PromiseSpec, SessionError

PFX = Prefix.parse("10.0.0.0/8")


def route(neighbor, length):
    return Route(prefix=PFX,
                 as_path=ASPath(tuple(f"T{i}" for i in range(length))),
                 neighbor=neighbor)


ROUTES = {"N1": route("N1", 4), "N2": route("N2", 2), "N3": route("N3", 6)}


def within(k):
    """Promise 3 with latitude ``k`` toward B, over N1..N3."""
    return PromiseSpec(promise=WithinKHops(k), prover="A",
                       providers=("N1", "N2", "N3"), recipients=("B",),
                       max_length=8)


class WithinKProver(HonestProver):
    """Exports a route up to its construction-time ``extra`` hops longer
    than the minimum — legal under promise 3 with slack >= extra."""

    def __init__(self, keystore, extra, random_bytes=None):
        super().__init__(keystore, random_bytes)
        self.extra = extra

    def choose_winner(self, config, accepted):
        if not accepted:
            return None
        ordered = sorted(
            accepted.values(), key=lambda a: (len(a.route.as_path), a.origin)
        )
        shortest = len(ordered[0].route.as_path)
        eligible = [
            a for a in ordered
            if len(a.route.as_path) <= shortest + self.extra
        ]
        return eligible[-1]  # the longest still-permitted route


class TestPromise3Slack:
    def test_config_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            RoundConfig(prover="A", providers=("N1",), recipient="B",
                        round=1, slack=-1)

    def test_within_k_export_accepted_under_slack(self, keystore):
        report = VerificationSession(
            keystore, within(2), round=1,
            prover=WithinKProver(keystore, extra=2),
        ).run(ROUTES)
        # min is 2; exported is 4 (within slack 2)
        att = report.transcript.detail.recipient_view.attestation
        assert att.exported_length() == 4
        assert not report.violation_found()

    def test_same_export_rejected_without_slack(self, keystore):
        report = VerificationSession(
            keystore, within(0), round=2,
            prover=WithinKProver(keystore, extra=2),
        ).run(ROUTES)
        kinds = {
            v.kind for v in report.verdicts["B"].violations
        }
        assert "shorter-available" in kinds

    def test_export_beyond_slack_rejected(self, keystore):
        report = VerificationSession(
            keystore, within(1), round=3,
            prover=WithinKProver(keystore, extra=4),
        ).run(ROUTES)
        # min 2, exported 6, slack 1 -> violation
        kinds = {v.kind for v in report.verdicts["B"].violations}
        assert "shorter-available" in kinds
        judge = Judge(keystore)
        for violation in report.verdicts["B"].violations:
            if violation.evidence is not None:
                assert judge.validate(violation.evidence)

    def test_slack_recorded_in_evidence(self, keystore):
        report = VerificationSession(
            keystore, within(1), round=4,
            prover=WithinKProver(keystore, extra=4),
        ).run(ROUTES)
        evidence = [
            v.evidence for v in report.verdicts["B"].violations
            if v.kind == "shorter-available"
        ][0]
        assert evidence.slack == 1

    def test_judge_rejects_evidence_within_contracted_slack(self, keystore):
        """Accuracy for promise 3: exporting within slack is not
        punishable even if an accuser constructs the evidence object."""
        report = VerificationSession(
            keystore, within(2), round=5,
            prover=WithinKProver(keystore, extra=2),
        ).run(ROUTES)
        view = report.transcript.detail.recipient_view
        min_disclosure = next(d for d in view.disclosures if d.index == 2)
        from repro.pvr.evidence import ShorterAvailableEvidence

        fabricated = ShorterAvailableEvidence(
            vector=view.vector,
            attestation=view.attestation,
            disclosure=min_disclosure,
            slack=report.spec.slack,
        )
        assert not Judge(keystore).validate(fabricated)

    def test_honest_prover_trivially_satisfies_any_slack(self, keystore):
        for slack in (0, 1, 3):
            report = VerificationSession(
                keystore, within(slack), round=10 + slack
            ).run(ROUTES)
            assert not report.violation_found()


class TestPromise4CrossCheck:
    SPEC = PromiseSpec(promise=NoLongerThanOthers(), prover="A",
                       providers=("N1", "N2", "N3"),
                       recipients=("B1", "B2", "B3"))

    def test_honest_equal_treatment_clean(self, keystore):
        report = VerificationSession(
            keystore, self.SPEC, round=1, chooser=honest_chooser
        ).run(ROUTES)
        assert not report.violation_found()

    def test_discrimination_detected_by_victims(self, keystore):
        report = VerificationSession(
            keystore, self.SPEC, round=2, chooser=discriminating_chooser("B1")
        ).run(ROUTES)
        assert report.violation_found()
        # B1 got the short route; B2 and B3 are the victims
        assert report.detecting_parties() == ("B2", "B3")

    def test_evidence_validates_at_judge(self, keystore):
        report = VerificationSession(
            keystore, self.SPEC, round=3, chooser=discriminating_chooser("B2")
        ).run(ROUTES)
        judge = Judge(keystore)
        for verdict in report.verdicts.values():
            for violation in verdict.violations:
                assert judge.validate(violation.evidence)

    def test_starved_recipient_detects(self, keystore):
        report = VerificationSession(
            keystore, self.SPEC, round=4, chooser=withholding_chooser("B3")
        ).run(ROUTES)
        assert "B3" in report.detecting_parties()

    def test_nothing_for_anyone_is_consistent(self, keystore):
        empty = {"N1": None, "N2": None, "N3": None}
        report = VerificationSession(
            keystore, self.SPEC, round=5, chooser=honest_chooser
        ).run(empty)
        assert not report.violation_found()

    def test_needs_two_recipients(self, keystore):
        lone = PromiseSpec(promise=NoLongerThanOthers(), prover="A",
                           providers=("N1",), recipients=("B1",))
        with pytest.raises(SessionError):
            VerificationSession(keystore, lone, round=6)

    def test_forged_attestation_cannot_frame(self, keystore):
        """A Byzantine recipient altering a gossiped attestation cannot
        frame the honest prover: the signature check drops it."""
        report = VerificationSession(
            keystore, self.SPEC, round=7, chooser=honest_chooser
        ).run(ROUTES)
        genuine = report.transcript.detail["B2"]
        shorter = route("N2", 1).exported_by("A")
        forged = type(genuine)(
            author=genuine.author, recipient="B2", round=genuine.round,
            route=shorter, provenance=genuine.provenance,
            signature=genuine.signature,
        )
        verdict = cross_check(
            keystore, "B1", report.transcript.detail["B1"],
            [forged, report.transcript.detail["B3"]],
        )
        assert verdict.ok

    def test_cross_round_attestations_ignored(self, keystore):
        r1 = VerificationSession(
            keystore, self.SPEC, round=8, chooser=honest_chooser
        ).run(ROUTES)
        starved = {"N1": None, "N2": None, "N3": None}
        r2 = VerificationSession(
            keystore, self.SPEC, round=9, chooser=honest_chooser
        ).run(starved)
        # B1's round-9 "nothing" vs B2's round-8 route: different rounds,
        # not comparable, no violation
        verdict = cross_check(
            keystore, "B1", r2.transcript.detail["B1"], [r1.transcript.detail["B2"]]
        )
        assert verdict.ok

    def test_unequal_treatment_evidence_fields(self, keystore):
        report = VerificationSession(
            keystore, self.SPEC, round=11, chooser=discriminating_chooser("B1")
        ).run(ROUTES)
        violation = report.verdicts["B2"].violations[0]
        evidence = violation.evidence
        assert isinstance(evidence, UnequalTreatmentEvidence)
        assert evidence.accused == "A"
        assert evidence.victim_attestation.recipient == "B2"
        assert evidence.other_attestation.recipient in ("B1",)
