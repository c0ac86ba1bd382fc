"""PVR rounds in situ: a :class:`~repro.audit.monitor.Monitor` attached
to a simulated BGP network — one-shot probes, armed policies, the
whole-network sweep and promise 4 over the live RIBs."""

import pytest

from repro.audit import Monitor
from repro.bgp.network import BGPNetwork
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.promises.spec import NoLongerThanOthers, ShortestRoute
from repro.pvr.adversary import LongerRouteProver

PFX = Prefix.parse("10.0.0.0/8")


@pytest.fixture
def figure1_network():
    """The paper's Figure 1 as a BGP topology: O originates, N1..N3 relay
    to A over paths of different lengths, A exports to B."""
    net = BGPNetwork()
    for asn in ("O", "X", "N1", "N2", "N3", "A", "B"):
        net.add_as(asn)
    # N2 hears O directly (length 2 at A); N1 and N3 hear O via X
    # (length 3 at A) -- their own 2-hop paths beat anything via A, so
    # all three export to A
    net.connect("O", "X")
    net.connect("X", "N1")
    net.connect("X", "N3")
    net.connect("O", "N2")
    for n in ("N1", "N2", "N3"):
        net.connect(n, "A")
    net.connect("A", "B")
    net.establish_sessions()
    net.originate("O", PFX)
    net.run_to_quiescence()
    return net


@pytest.fixture
def monitor(figure1_network):
    return Monitor(KeyStore(seed=5, key_bits=512)).attach(figure1_network)


class TestMonitoredRound:
    def test_honest_round_clean(self, monitor):
        event = monitor.audit_once("A", PFX, "B", max_length=8)
        assert all(v.ok for v in event.report.verdicts.values())
        assert event.stats.violations == 0
        assert event.stats.equivocations == 0

    def test_uses_real_rib_contents(self, monitor, figure1_network):
        stats = monitor.audit_once("A", PFX, "B", max_length=8).stats
        assert set(stats.providers) == {"N1", "N2", "N3"}
        # A's best is via N2 (shortest), so BGP and PVR agree
        assert figure1_network.best_route("A", PFX).neighbor == "N2"

    def test_costs_accounted(self, monitor):
        stats = monitor.audit_once("A", PFX, "B", max_length=8).stats
        assert stats.messages > 0
        assert stats.bytes > 0
        assert stats.signatures > 0
        assert stats.verifications > 0
        assert stats.wall_seconds > 0

    def test_pvr_traffic_does_not_disturb_bgp(self, monitor,
                                              figure1_network):
        before = figure1_network.best_route("B", PFX)
        monitor.audit_once("A", PFX, "B", max_length=8)
        figure1_network.run_to_quiescence()
        assert figure1_network.best_route("B", PFX) == before

    def test_byzantine_prover_detected_in_situ(self, monitor):
        event = monitor.audit_once(
            "A", PFX, "B", prover=LongerRouteProver(monitor.keystore),
            max_length=8,
        )
        assert event.stats.violations > 0
        assert not event.report.verdicts["B"].ok

    def test_no_providers_raises(self, monitor):
        with pytest.raises(ValueError):
            monitor.audit_once("O", PFX, "X", max_length=8)


class TestContinuousMonitoring:
    def test_update_triggers_rounds(self):
        """A policy armed (``audit_now=False``) before origination queues
        a round per decision change at the watched AS, executed after
        quiescence."""
        net = BGPNetwork()
        for asn in ("O", "X", "N1", "N2", "A", "B"):
            net.add_as(asn)
        net.connect("O", "X")
        net.connect("X", "N1")
        net.connect("O", "N2")
        net.connect("N1", "A")
        net.connect("N2", "A")
        net.connect("A", "B")
        net.establish_sessions()
        monitor = Monitor(KeyStore(seed=8, key_bits=512)).attach(net)
        monitor.policy("A", ShortestRoute(), max_length=8, audit_now=False)

        net.originate("O", PFX)
        net.run_to_quiescence()
        epoch = monitor.run_epoch()
        assert epoch.events
        assert epoch.violation_free()

    def test_withdrawal_also_triggers(self):
        net = BGPNetwork()
        for asn in ("O", "X", "N1", "N2", "A", "B"):
            net.add_as(asn)
        net.connect("O", "X")
        net.connect("X", "N1")
        net.connect("O", "N2")
        net.connect("N1", "A")
        net.connect("N2", "A")
        net.connect("A", "B")
        net.establish_sessions()
        monitor = Monitor(KeyStore(seed=9, key_bits=512)).attach(net)
        net.originate("O", PFX)
        net.run_to_quiescence()
        monitor.policy("A", ShortestRoute(), max_length=8, audit_now=False)

        # the O-N2 session drops; A's decision changes; a round fires
        net.routers["N2"].sessions["O"].reset()
        net.routers["N2"]._flush_peer(net.transport, "O")
        net.run_to_quiescence()
        epoch = monitor.run_epoch()
        assert epoch.events
        assert epoch.violation_free()
        # pending queue drains
        assert monitor.run_epoch().events == []


class TestPromise4InSitu:
    def test_honest_router_treats_recipients_equally(self, monitor,
                                                     figure1_network):
        # find an AS relaying to at least two peers that are not also its
        # providers (A's only such peer is B; the origin has no provider,
        # so there is nothing of its to audit): X hears O, serves N1/N3
        net = figure1_network

        def relays_to_two(asn):
            router = net.router(asn)
            providers = router.adj_rib_in.neighbors_announcing(PFX)
            served = [
                p for p in router.established_peers()
                if router.adj_rib_out.advertised(p, PFX) is not None
                and p not in providers
            ]
            return bool(providers) and len(served) >= 2

        candidates = [asn for asn in net.as_names() if relays_to_two(asn)]
        assert candidates
        monitor.policy(candidates[0], NoLongerThanOthers(), max_length=8)
        epoch = monitor.run_epoch()
        assert epoch.events
        assert all(e.report.variant == "crosscheck" for e in epoch.events)
        assert epoch.violation_free()

    def test_too_few_recipients_skipped(self, monitor):
        """The audit plane skips a cross-check with fewer than two
        comparable recipients instead of raising."""
        monitor.policy("B", NoLongerThanOthers(), max_length=8)
        assert monitor.run_epoch().events == []  # B exports to nobody


class TestNetworkSweep:
    """The whole-network sweep: a shortest-route policy on every AS, one
    epoch bounded to N fresh rounds."""

    @pytest.fixture
    def sweep(self, figure1_network):
        def run(max_work):
            monitor = Monitor(
                KeyStore(seed=5, key_bits=512), max_work_per_epoch=max_work
            ).attach(figure1_network)
            for asn in figure1_network.as_names():
                monitor.policy(asn, ShortestRoute(), prefixes=(PFX,),
                               max_length=8)
            return monitor.run_epoch()
        return run

    def test_sweep_clean_on_honest_network(self, sweep):
        epoch = sweep(6)
        assert epoch.events
        assert epoch.violation_free()

    def test_round_budget_respected(self, sweep):
        assert len(sweep(2).events) == 2

    def test_totals(self, sweep):
        epoch = sweep(3)
        assert epoch.messages == sum(e.stats.messages for e in epoch.events)
        assert epoch.bytes > 0
