"""SCALE — PVR deployed on a converging BGP network.

Section 3.8 worries that signing "can be burdensome during BGP message
bursts".  This benchmark quantifies PVR's marginal cost on a realistic
substrate: synthetic Gao-Rexford topologies of growing size, a prefix
originated at a stub, BGP run to convergence, then a PVR verification
round for every (AS, exporting-neighbor) pair — messages, bytes,
signatures and wall time per round.

Shape assertions: zero violations on honest networks of every size, and
per-round cost growing with the AS's degree (the k of Figure 1), not
with the network size.
"""

import pytest

from repro.audit import Monitor
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.promises.spec import ShortestRoute
from repro.topology.generate import TopologyParams, generate, true_stub
from repro.topology.internet import build_bgp_network

from conftest import print_table, run_once

PFX = Prefix.parse("10.0.0.0/8")

SIZES = {
    "small": TopologyParams(tier1=2, tier2=4, stubs=6, seed=11),
    "medium": TopologyParams(tier1=3, tier2=8, stubs=20, seed=12),
    "large": TopologyParams(tier1=4, tier2=12, stubs=44, seed=13),
}


def converged_network(params):
    graph = generate(params)
    net = build_bgp_network(graph)
    net.originate(true_stub(graph), PFX)
    net.run_to_quiescence()
    return net


def armed_monitor(net, keystore):
    """A monitor whose next epoch is the whole-network sweep: a
    shortest-route policy on every AS marks each (AS, PFX) pair dirty,
    so ``run_epoch(max_work=N)`` runs one round per (AS, exporting
    neighbor) pair that has providers for PFX, capped at N rounds."""
    monitor = Monitor(keystore).attach(net)
    for asn in net.as_names():
        monitor.policy(asn, ShortestRoute(), prefixes=(PFX,))
    return monitor


@pytest.fixture(scope="module", params=list(SIZES))
def scale_case(request):
    params = SIZES[request.param]
    net = converged_network(params)
    keystore = KeyStore(seed=params.seed, key_bits=1024)
    return request.param, params, net, armed_monitor(net, keystore)


def test_pvr_sweep(benchmark, scale_case):
    name, params, net, monitor = scale_case

    def sweep():
        return monitor.run_epoch(max_work=10)

    epoch = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert epoch.events
    assert epoch.violation_free()


def test_scale_table(benchmark):
    """The SCALE series: per-round PVR cost vs topology size."""

    def experiment():
        rows = []
        for name, params in SIZES.items():
            net = converged_network(params)
            keystore = KeyStore(seed=params.seed, key_bits=1024)
            epoch = armed_monitor(net, keystore).run_epoch(max_work=12)
            assert epoch.violation_free()
            n_rounds = len(epoch.events)
            rows.append((
                name,
                params.total(),
                net.total_updates(),
                n_rounds,
                f"{epoch.messages / n_rounds:.1f}",
                f"{epoch.bytes / n_rounds / 1024:.1f} KiB",
                f"{epoch.signatures / n_rounds:.1f}",
                f"{epoch.wall_seconds / n_rounds * 1000:.1f} ms",
            ))
        return rows

    rows = run_once(benchmark, experiment)
    print_table(
        "SCALE: per-round PVR cost vs topology size",
        ["topology", "ASes", "BGP updates", "PVR rounds",
         "msgs/round", "bytes/round", "sigs/round", "ms/round"],
        rows,
    )


def test_cost_tracks_degree_not_network_size(benchmark):
    """A round's signature count is linear in the prover's provider count
    (k), independent of total AS count."""
    params = SIZES["large"]
    net = converged_network(params)
    monitor = Monitor(KeyStore(seed=99, key_bits=1024)).attach(net)

    def experiment():
        samples = []
        for asn in net.as_names():
            router = net.router(asn)
            providers = router.adj_rib_in.neighbors_announcing(PFX)
            if len(providers) < 1:
                continue
            recipients = [
                peer for peer in router.established_peers()
                if router.adj_rib_out.advertised(peer, PFX) is not None
                and (peer not in providers or len(providers) > 1)
            ]
            if not recipients:
                continue
            stats = monitor.audit_once(asn, PFX, recipients[0]).stats
            samples.append((len(stats.providers), stats.signatures))
            if len(samples) >= 8:
                break
        return samples

    samples = run_once(benchmark, experiment)
    assert samples
    print_table("SCALE: signatures vs provider count",
                ["providers k", "signatures"], sorted(samples))
    # signatures grow with k: compare min-k and max-k samples
    samples.sort()
    if samples[0][0] != samples[-1][0]:
        assert samples[-1][1] > samples[0][1]


def test_honest_convergence_statistics(benchmark):
    """BGP substrate sanity at benchmark scale: everyone reaches the
    prefix over a valley-free path."""

    def experiment():
        for name, params in SIZES.items():
            graph = generate(params)
            net = build_bgp_network(graph)
            origin = graph.ases()[-1]
            net.originate(origin, PFX)
            net.run_to_quiescence()
            reach = net.reachability(PFX)
            assert all(route is not None for route in reach.values()), name
        return True

    assert run_once(benchmark, experiment)
