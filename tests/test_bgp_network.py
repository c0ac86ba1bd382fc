"""End-to-end tests for router + network: convergence, policies, failures."""

import pytest

from repro.bgp.network import BGPNetwork, ConvergenceError
from repro.bgp.policy import (
    Clause,
    MatchASInPath,
    Policy,
    Prepend,
    SetLocalPref,
)
from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.messages import Notification, Update
from repro.bgp.route import Route

PFX = Prefix.parse("10.0.0.0/8")


def line_network(*asns):
    """A -- B -- C ... chain with permissive policies."""
    net = BGPNetwork()
    for asn in asns:
        net.add_as(asn)
    for a, b in zip(asns, asns[1:]):
        net.connect(a, b)
    net.establish_sessions()
    return net


class TestSessionEstablishment:
    def test_all_sessions_established(self):
        net = line_network("A", "B", "C")
        for asn in ("A", "B", "C"):
            router = net.router(asn)
            assert router.established_peers() == sorted(router.sessions)

    def test_simultaneous_open(self):
        # establish_sessions starts all routers at once; both sides of every
        # link race their OPENs
        net = BGPNetwork()
        net.add_as("A")
        net.add_as("B")
        net.connect("A", "B")
        net.establish_sessions()
        assert net.router("A").sessions["B"].established
        assert net.router("B").sessions["A"].established


class TestPropagation:
    def test_route_propagates_down_a_chain(self):
        net = line_network("A", "B", "C", "D")
        net.originate("A", PFX)
        net.run_to_quiescence()
        best_d = net.best_route("D", PFX)
        assert best_d is not None
        assert list(best_d.as_path) == ["C", "B", "A"]

    def test_forwarding_path(self):
        net = line_network("A", "B", "C", "D")
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert net.forwarding_path("D", PFX) == ["D", "C", "B", "A"]

    def test_shortest_path_chosen_in_ring(self):
        # A-B-C-D-A ring: D reaches A directly, not via B,C
        net = BGPNetwork()
        for asn in "ABCD":
            net.add_as(asn)
        for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")):
            net.connect(a, b)
        net.establish_sessions()
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert list(net.best_route("D", PFX).as_path) == ["A"]
        assert list(net.best_route("C", PFX).as_path) in (["B", "A"], ["D", "A"])

    def test_withdrawal_propagates(self):
        net = line_network("A", "B", "C")
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert net.best_route("C", PFX) is not None
        net.withdraw("A", PFX)
        net.run_to_quiescence()
        assert net.best_route("C", PFX) is None

    def test_failover_to_longer_path(self):
        # two disjoint paths: A-B-D (short) and A-C-E-D (long)
        net = BGPNetwork()
        for asn in "ABCDE":
            net.add_as(asn)
        for a, b in (("A", "B"), ("B", "D"), ("A", "C"), ("C", "E"), ("E", "D")):
            net.connect(a, b)
        net.establish_sessions()
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert list(net.best_route("D", PFX).as_path) == ["B", "A"]
        # kill the B-D session from B's side
        net.transport.send("B", "D", Notification(code="cease"))
        net.router("B").sessions["D"].reset()
        net.router("B")._flush_peer(net.transport, "D")
        net.run_to_quiescence()
        best = net.best_route("D", PFX)
        assert best is not None
        assert list(best.as_path) == ["E", "C", "A"]

    def test_loop_prevention(self):
        net = line_network("A", "B")
        net.originate("A", PFX)
        net.run_to_quiescence()
        # A must not have learned its own route back
        assert net.best_route("A", PFX).neighbor is None
        assert net.router("A").adj_rib_in.candidates(PFX) == []

    def test_looped_announcement_replaces_the_previous_one(self):
        # A holds B's route to C's prefix; B then re-announces a path
        # through A, which A must treat as B withdrawing the old route
        net = line_network("A", "B", "C")
        net.originate("C", PFX)
        net.run_to_quiescence()
        assert list(net.best_route("A", PFX).as_path) == ["B", "C"]
        looped = Route(prefix=PFX, as_path=ASPath(("B", "A", "C")))
        net.transport.send("B", "A", Update(announced=looped))
        net.run_to_quiescence()
        assert net.router("A").adj_rib_in.candidates(PFX) == []
        assert net.best_route("A", PFX) is None


class TestPolicyEffects:
    def test_local_pref_overrides_path_length(self):
        # C learns PFX from B (1 hop) and D (2 hops); import policy prefers D
        net = BGPNetwork()
        for asn in "ABCDE":
            net.add_as(asn)
        net.connect("A", "B")
        net.connect("B", "C")
        net.connect("A", "E")
        net.connect("E", "D")
        net.connect("D", "C",
                    import_policy_b=Policy(clauses=(
                        Clause(actions=(SetLocalPref(300),)),
                    )))
        net.establish_sessions()
        net.originate("A", PFX)
        net.run_to_quiescence()
        best = net.best_route("C", PFX)
        assert best.neighbor == "D"

    def test_export_deny_blocks_propagation(self):
        deny_tainted = Policy(clauses=(
            Clause(matches=(MatchASInPath("A"),), permit=False),
        ))
        net = BGPNetwork()
        for asn in "ABC":
            net.add_as(asn)
        net.connect("A", "B")
        net.connect("B", "C", export_policy_a=deny_tainted)
        net.establish_sessions()
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert net.best_route("B", PFX) is not None
        assert net.best_route("C", PFX) is None

    def test_prepending_diverts_traffic(self):
        # two equal paths to A from D: via B and via C; B prepends on export
        prepend = Policy(clauses=(Clause(actions=(Prepend("B", 2),)),))
        net = BGPNetwork()
        for asn in "ABCD":
            net.add_as(asn)
        net.connect("A", "B")
        net.connect("A", "C")
        net.connect("B", "D", export_policy_a=prepend)
        net.connect("C", "D")
        net.establish_sessions()
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert net.best_route("D", PFX).neighbor == "C"


class TestAccounting:
    def test_update_counters(self):
        net = line_network("A", "B", "C")
        net.originate("A", PFX)
        net.run_to_quiescence()
        assert net.total_updates() >= 2
        assert net.router("C").updates_received >= 1

    def test_quiescence_budget_enforced(self):
        net = line_network("A", "B", "C")
        net.originate("A", PFX)
        with pytest.raises(ConvergenceError):
            net.run_to_quiescence(max_events=0)
