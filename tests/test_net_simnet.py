"""Tests for the event-driven network simulator."""

import pytest

from repro.net.simnet import (
    Message, Meter, Network, Node, Simulator, build_network, wire_encoding,
)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_ties_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_until_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.pending() == 1

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending() == 6

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        def outer():
            seen.append("outer")
            sim.schedule(1.0, lambda: seen.append("inner"))
        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)


class TestNetwork:
    def _two_nodes(self):
        net = Network()
        net.add_node(Node("A"))
        net.add_node(Node("B"))
        net.add_link("A", "B", latency=0.5)
        return net

    def test_delivery(self):
        net = self._two_nodes()
        net.send("A", "B", "hello")
        net.run()
        assert [m.payload for m in net.node("B").inbox] == ["hello"]

    def test_delivery_latency(self):
        net = self._two_nodes()
        net.send("A", "B", "hello")
        net.run()
        assert net.simulator.now == 0.5

    def test_fifo_per_link(self):
        net = self._two_nodes()
        for i in range(5):
            net.send("A", "B", i)
        net.run()
        assert [m.payload for m in net.node("B").inbox] == [0, 1, 2, 3, 4]

    def test_no_link_rejected(self):
        net = Network()
        net.add_node(Node("A"))
        net.add_node(Node("C"))
        with pytest.raises(ValueError):
            net.send("A", "C", "x")

    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(Node("A"))
        with pytest.raises(ValueError):
            net.add_node(Node("A"))

    def test_duplicate_link_rejected(self):
        net = self._two_nodes()
        with pytest.raises(ValueError):
            net.add_link("B", "A")

    def test_self_link_rejected(self):
        net = self._two_nodes()
        with pytest.raises(ValueError):
            net.add_link("A", "A")

    def test_link_to_unknown_node_rejected(self):
        net = Network()
        net.add_node(Node("A"))
        with pytest.raises(KeyError):
            net.add_link("A", "Z")

    def test_neighbors_sorted(self):
        net = build_network(["C", "A", "B"], [("C", "A"), ("C", "B")])
        assert net.neighbors("C") == ("A", "B")
        assert net.neighbors("A") == ("C",)

    def test_broadcast(self):
        net = build_network(["A", "B", "C"], [("A", "B"), ("A", "C")])
        net.broadcast("A", "hi")
        net.run()
        assert [m.payload for m in net.node("B").inbox] == ["hi"]
        assert [m.payload for m in net.node("C").inbox] == ["hi"]

    def test_bytes_accounting_monotonic(self):
        net = self._two_nodes()
        with net.metered() as meter:
            net.send("A", "B", "hello")
            before = meter.bytes
            net.send("A", "B", "hello again, this is longer")
            assert meter.bytes > before


class TestMeter:
    def _net(self):
        return build_network(["A", "B"], [("A", "B")])

    def test_prices_only_what_is_sent_inside(self):
        net = self._net()
        net.send("A", "B", "before")
        with net.metered() as meter:
            net.send("A", "B", "inside")
            net.send("B", "A", ("a", 1))
        net.send("A", "B", "after")
        net.run()
        assert meter.bytes == (
            len(wire_encoding("inside")) + len(wire_encoding(("a", 1)))
        )
        assert net.delivered == 4

    def test_a_nested_meter_raises(self):
        net = self._net()
        with net.metered():
            with pytest.raises(RuntimeError, match="already metered"):
                with net.metered():
                    pass  # pragma: no cover

    def test_a_meter_whose_block_raised_is_closed(self):
        net = self._net()
        with pytest.raises(KeyError):
            with net.metered():
                raise KeyError("boom")
        with net.metered() as meter:
            net.send("A", "B", "x")
        assert meter.bytes == len(wire_encoding("x"))

    def test_the_digest_ignores_order_and_counts_copies(self):
        def digest(*payloads):
            net = self._net()
            with net.metered() as meter:
                for payload in payloads:
                    net.send("A", "B", payload)
            return meter.digest()

        assert digest("x", "y") == digest("y", "x")
        assert digest("x", "y") != digest("x", "y", "y")
        assert digest("x") != digest("y")
        # the off-wire cost model prices copies it never sends
        modeled = Meter()
        modeled.price("y", copies=2)
        modeled.price("x")
        assert modeled.digest() == digest("y", "x", "y")
        assert modeled.bytes == len(wire_encoding("x")) + 2 * len(
            wire_encoding("y")
        )


class TestInterceptors:
    def _net(self):
        return build_network(["A", "B"], [("A", "B")])

    def test_drop(self):
        net = self._net()
        net.set_interceptor("A", lambda m: None)
        net.send("A", "B", "x")
        net.run()
        assert net.node("B").inbox == []

    def test_modify(self):
        net = self._net()
        net.set_interceptor(
            "A", lambda m: Message(src=m.src, dst=m.dst, payload="evil")
        )
        net.send("A", "B", "honest")
        net.run()
        assert [m.payload for m in net.node("B").inbox] == ["evil"]

    def test_substitute_multiple(self):
        net = self._net()
        net.set_interceptor(
            "A",
            lambda m: [
                Message(src=m.src, dst=m.dst, payload=p)
                for p in ("one", "two")
            ],
        )
        net.send("A", "B", "x")
        net.run()
        assert [m.payload for m in net.node("B").inbox] == ["one", "two"]

    def test_redirect_to_another_neighbour_takes_its_link(self):
        net = build_network(
            ["A", "B", "C"], [("A", "B", 0.01), ("A", "C", 0.5)]
        )
        net.set_interceptor(
            "A", lambda m: Message(src=m.src, dst="C", payload=m.payload)
        )
        net.send("A", "B", "x")
        net.run()
        assert net.node("B").inbox == []
        assert [m.payload for m in net.node("C").inbox] == ["x"]
        assert net.simulator.now == 0.5

    def test_redirect_to_a_non_neighbour_raises(self):
        net = build_network(["A", "B", "C"], [("A", "B"), ("B", "C")])
        net.set_interceptor(
            "A", lambda m: Message(src=m.src, dst="C", payload=m.payload)
        )
        with pytest.raises(ValueError, match="'A' and 'C'"):
            net.send("A", "B", "x")
        net.run()
        assert net.node("C").inbox == []

    def test_a_spoofed_source_raises(self):
        net = build_network(["A", "B", "C"], [("A", "B"), ("B", "C")])
        net.set_interceptor(
            "A", lambda m: Message(src="C", dst=m.dst, payload=m.payload)
        )
        with pytest.raises(ValueError, match="'A' cannot send as 'C'"):
            net.send("A", "B", "x")
        net.run()
        assert net.node("B").inbox == []

    def test_clear_interceptor(self):
        net = self._net()
        net.set_interceptor("A", lambda m: None)
        net.clear_interceptor("A")
        net.send("A", "B", "x")
        net.run()
        assert [m.payload for m in net.node("B").inbox] == ["x"]

    def test_interceptor_on_unknown_node(self):
        net = self._net()
        with pytest.raises(KeyError):
            net.set_interceptor("Z", lambda m: None)
