"""Cross-module integration tests.

These exercise the full stack — topology → BGP → PVR → judge — over
multiple rounds with route dynamics, and encode the paper's positioning
claims (e.g. that S-BGP-style provenance checking alone cannot catch
decision-rule violations, Section 1).
"""

import pytest

from repro.audit import Monitor
from repro.bgp.network import BGPNetwork
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.pvr.adversary import LongerRouteProver, UnderstatingProver
from repro.pvr.judge import Judge

PFX1 = Prefix.parse("10.0.0.0/8")
PFX2 = Prefix.parse("20.0.0.0/8")


@pytest.fixture
def diamond():
    """O announces; N1/N2/N3 relay over different path lengths to A; A
    exports to B.  N2's path is shortest."""
    net = BGPNetwork()
    for asn in ("O", "X", "N1", "N2", "N3", "A", "B"):
        net.add_as(asn)
    net.connect("O", "X")
    net.connect("X", "N1")
    net.connect("X", "N3")
    net.connect("O", "N2")
    for n in ("N1", "N2", "N3"):
        net.connect(n, "A")
    net.connect("A", "B")
    net.establish_sessions()
    net.originate("O", PFX1)
    net.run_to_quiescence()
    return net


class TestMultiRoundDynamics:
    def test_rounds_follow_route_changes(self, diamond):
        monitor = Monitor(KeyStore(seed=1, key_bits=512)).attach(diamond)

        # round 1: N2's 2-hop route wins
        first = monitor.audit_once("A", PFX1, "B", max_length=8)
        assert first.stats.violations == 0

        # the O-N2 link dies: N2 loses its short route
        diamond.router("N2").sessions["O"].reset()
        diamond.router("N2")._flush_peer(diamond.transport, "O")
        diamond.run_to_quiescence()
        best = diamond.best_route("A", PFX1)
        assert best.neighbor in ("N1", "N3")

        # round 2 verifies the *new* minimum, still clean
        second = monitor.audit_once("A", PFX1, "B", max_length=8)
        assert second.stats.violations == 0
        assert all(v.ok for v in second.report.verdicts.values())
        # N2 is no longer a provider
        assert "N2" not in second.stats.providers

    def test_multiple_prefixes_independent(self, diamond):
        diamond.originate("O", PFX2)
        diamond.run_to_quiescence()
        monitor = Monitor(KeyStore(seed=2, key_bits=512)).attach(diamond)
        for prefix in (PFX1, PFX2):
            event = monitor.audit_once("A", prefix, "B", max_length=8)
            assert event.stats.violations == 0

    def test_sequential_rounds_have_distinct_round_numbers(self, diamond):
        monitor = Monitor(KeyStore(seed=3, key_bits=512)).attach(diamond)
        first = monitor.audit_once("A", PFX1, "B", max_length=8)
        second = monitor.audit_once("A", PFX1, "B", max_length=8)
        # replaying round-1 material into round 2 would fail signature
        # checks; the monitor enforces fresh round counters
        assert (first.round, second.round) == (1, 2)


class TestSBGPComparison:
    """Section 1: "S-BGP ... can check that a routing announcement does
    correspond to the claimed path and destination, but these mechanisms
    do not address ... whether the route decision process matches
    expectations." """

    def test_sbgp_provenance_passes_where_pvr_detects(self, diamond):
        keystore = KeyStore(seed=4, key_bits=512)
        verdicts = Monitor(keystore).attach(diamond).audit_once(
            "A", PFX1, "B", prover=LongerRouteProver(keystore), max_length=8
        ).report.verdicts
        # S-BGP's check: is the exported route authentically from the
        # neighbor on its path?  Yes -- the longer route is a real,
        # validly signed announcement.
        recipient_verdict = verdicts["B"]
        provenance_violations = [
            v for v in recipient_verdict.violations
            if v.kind == "bad-provenance"
        ]
        assert not provenance_violations, "S-BGP-style check passes"
        # PVR's decision-process check catches it anyway.
        assert any(
            v.kind == "shorter-available"
            for v in recipient_verdict.violations
        )

    def test_detection_requires_the_collective(self, diamond):
        """The understating adversary defeats B alone (B's view is
        self-consistent); only the provider-side checks catch it —
        the paper's argument for collective verification."""
        keystore = KeyStore(seed=5, key_bits=512)
        verdicts = Monitor(keystore).attach(diamond).audit_once(
            "A", PFX1, "B", prover=UnderstatingProver(keystore), max_length=8
        ).report.verdicts
        assert verdicts["B"].ok
        provider_detectors = [
            name for name, v in verdicts.items()
            if name != "B" and not v.ok
        ]
        assert provider_detectors


class TestEvidencePortability:
    def test_evidence_from_deployment_validates_offline(self, diamond):
        """Evidence harvested in a live network round convinces a judge
        instantiated afterwards with only the key directory."""
        keystore = KeyStore(seed=6, key_bits=512)
        verdicts = Monitor(keystore).attach(diamond).audit_once(
            "A", PFX1, "B", prover=LongerRouteProver(keystore), max_length=8
        ).report.verdicts
        collected = [
            violation.evidence
            for verdict in verdicts.values()
            for violation in verdict.violations
            if violation.evidence is not None
        ]
        assert collected
        judge = Judge(keystore)
        assert all(judge.validate(item) for item in collected)


class TestEndToEndPromiseCompilation:
    def test_compile_check_verify_pipeline(self):
        """Promise -> compiled graph -> static check -> protocol round ->
        collective verification, with no hand-written graph."""
        from repro.promises.spec import ShortestFromSubset
        from repro.pvr.access import paper_alpha
        from repro.pvr.announcements import make_announcement
        from repro.pvr.navigation import (
            Navigator,
            OperatorSkeleton,
            verify_as_output_recipient,
        )
        from repro.pvr.protocol import GraphProver, GraphRoundConfig
        from repro.rfg.compiler import compile_promise
        from repro.rfg.static_check import collectively_verifiable, implements
        from repro.bgp.aspath import ASPath
        from repro.bgp.route import Route

        keystore = KeyStore(seed=7, key_bits=512)
        neighbors = ("N1", "N2", "N3")
        for asn in ("A", "B") + neighbors:
            keystore.register(asn)
        promise = ShortestFromSubset(("N1", "N2"))
        graph = compile_promise(promise, neighbors)
        assert implements(graph, promise)
        alpha = paper_alpha(graph)
        ok, _ = collectively_verifiable(graph, alpha.payload_alpha())
        assert ok

        config = GraphRoundConfig(prover="A", round=1, max_length=8)
        prover = GraphProver(keystore, graph, alpha, config)
        announcements = {}
        lengths = {"N1": 3, "N2": 2, "N3": 1}
        for index, vertex in enumerate(graph.inputs(), start=1):
            n = vertex.party
            announcements[vertex.name] = make_announcement(
                keystore,
                Route(prefix=PFX1,
                      as_path=ASPath(tuple(f"T{i}" for i in range(lengths[n]))),
                      neighbor=n),
                n, "A", 1,
            )
        prover.receive(announcements)
        root = prover.commit_round()
        attestation = prover.export_attestation("ro")
        # the subset minimum is N2's 2-hop route, not N3's shorter one
        assert attestation.exported_length() == 2
        nav = Navigator(keystore, "B", prover, root)
        verdict = verify_as_output_recipient(
            nav, config, "ro", attestation,
            [OperatorSkeleton(name="min", type_tag="min-path-length"),
             OperatorSkeleton(name="filter", type_tag="neighbor-filter")],
            known_providers=neighbors,
        )
        assert verdict.ok, verdict.violations
