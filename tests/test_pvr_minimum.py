"""Tests for the minimum protocol (paper Section 3.3, Figure 1)."""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.promises.spec import ShortestRoute
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.minimum import HonestProver, RoundConfig
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


class TestConfig:
    def test_rejects_empty_providers(self):
        with pytest.raises(ValueError):
            RoundConfig(prover="A", providers=(), recipient="B", round=1)

    def test_rejects_self_neighbor(self):
        with pytest.raises(ValueError):
            RoundConfig(prover="A", providers=("A",), recipient="B", round=1)
        with pytest.raises(ValueError):
            RoundConfig(prover="A", providers=("N1",), recipient="A", round=1)

    def test_rejects_bad_max_length(self):
        with pytest.raises(ValueError):
            RoundConfig(prover="A", providers=("N1",), recipient="B",
                        round=1, max_length=0)


class TestHonestRound:
    def test_all_verdicts_ok(self, keystore, spec, routes):
        report = VerificationSession(keystore, spec).run(routes)
        assert report.accuracy_ok
        assert report.detection_ok(deviated=False)

    def test_exports_the_minimum(self, keystore, spec, routes):
        report = VerificationSession(keystore, spec).run(routes)
        att = report.transcript.detail.recipient_view.attestation
        assert att.exported_length() == 2
        assert att.provenance.origin == "N2"

    def test_exported_path_prepended(self, keystore, spec, routes):
        report = VerificationSession(keystore, spec).run(routes)
        att = report.transcript.detail.recipient_view.attestation
        assert att.route.as_path.first_hop == "A"

    def test_confidentiality(self, keystore, spec, routes):
        report = VerificationSession(keystore, spec).run(routes)
        assert report.confidentiality_ok

    def test_no_routes_no_export(self, keystore, spec):
        routes = {"N1": None, "N2": None, "N3": None}
        report = VerificationSession(keystore, spec).run(routes)
        assert report.accuracy_ok
        assert report.transcript.detail.recipient_view.attestation.route is None

    def test_single_provider(self, keystore):
        spec = PromiseSpec(promise=ShortestRoute(), prover="A",
                           providers=("N1",), recipients=("B",),
                           max_length=8)
        report = VerificationSession(keystore, spec).run(
            {"N1": route("N1", 3)}
        )
        assert report.accuracy_ok
        assert report.transcript.detail.recipient_view.attestation.exported_length() == 3

    def test_tie_between_providers(self, keystore, spec):
        routes = {"N1": route("N1", 2), "N2": route("N2", 2), "N3": None}
        report = VerificationSession(keystore, spec).run(routes)
        assert report.accuracy_ok
        assert report.transcript.detail.recipient_view.attestation.exported_length() == 2

    def test_silent_provider_gets_no_disclosure(self, keystore, spec):
        routes = {"N1": route("N1", 2), "N2": None, "N3": None}
        report = VerificationSession(keystore, spec).run(routes)
        view = report.transcript.detail.provider_views["N2"]
        assert view.disclosure is None
        assert view.receipt is None
        assert report.accuracy_ok

    def test_max_length_routes_handled(self, keystore, spec):
        routes = {"N1": route("N1", 8), "N2": None, "N3": None}
        report = VerificationSession(keystore, spec).run(routes)
        assert report.accuracy_ok
        assert report.transcript.detail.recipient_view.attestation.exported_length() == 8

    def test_overlong_route_treated_as_absent(self, keystore, spec):
        routes = {"N1": route("N1", 9), "N2": None, "N3": None}  # > max_length
        report = VerificationSession(keystore, spec).run(routes)
        # the prover drops it; N1's announcement is out of protocol bounds
        att = report.transcript.detail.recipient_view.attestation
        assert att.route is None

    def test_deterministic_with_seeded_nonces(self, keystore, spec, routes):
        from repro.util.rng import DeterministicRandom
        p1 = HonestProver(keystore, DeterministicRandom(7).bytes)
        p2 = HonestProver(keystore, DeterministicRandom(7).bytes)
        r1 = VerificationSession(keystore, spec, prover=p1).run(routes)
        r2 = VerificationSession(keystore, spec, prover=p2).run(routes)
        v1 = r1.transcript.detail.recipient_view.vector
        v2 = r2.transcript.detail.recipient_view.vector
        assert [c.digest for c in v1.commitments] == [c.digest for c in v2.commitments]


class TestEvidencePipeline:
    def test_honest_round_produces_no_evidence(self, keystore, spec, routes):
        report = VerificationSession(keystore, spec).run(routes)
        assert report.all_evidence() == ()
        assert report.all_complaints() == ()

    def test_judge_validates_nothing_from_honest_round(self, keystore, spec, routes):
        report = VerificationSession(keystore, spec).run(routes)
        judge = Judge(keystore)
        assert report.adjudicate(judge).evidence_ok()  # vacuously
