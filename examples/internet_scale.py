#!/usr/bin/env python3
"""PVR on an Internet-like topology.

Generates a synthetic AS graph with Gao-Rexford business relationships
(tier-1 clique, transit customers, lateral peering), writes it out in
CAIDA serial-1 format, runs BGP to convergence for a prefix originated
at a true stub (providers, no customers), and then audits every
exporting AS with PVR — reporting the transport and crypto cost of the
whole sweep.

Run:  python examples/internet_scale.py [--quick] [--json PATH]
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.audit import Monitor
from repro.bgp.prefix import Prefix
from repro.crypto import hashing
from repro.crypto.keystore import KeyStore
from repro.promises.spec import ShortestRoute
from repro.topology.caida import parse_file, write_file
from repro.topology.generate import TopologyParams, generate, true_stub
from repro.topology.internet import build_bgp_network

AUDIT_PREFIX = "203.0.113.0/24"
SEED = 2011

# (topology, RSA key bits, cap on audited rounds) per profile
FULL = (TopologyParams(tier1=3, tier2=8, stubs=20, seed=SEED), 1024, 20)
QUICK = (TopologyParams(tier1=2, tier2=4, stubs=6, seed=SEED), 512, 8)


def caida_round_trip(graph) -> None:
    """The serialization demo: write the graph in CAIDA serial-1 format
    and read it back, as a real measurement pipeline would."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "as-rel.txt"
        write_file(graph, path)
        graph = parse_file(path)
    print(f"Re-read from CAIDA format: {graph.edge_count()} edges")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller topology, 512-bit keys, fewer rounds")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the numbers shown as JSON")
    args = parser.parse_args(argv)
    params, key_bits, max_rounds = QUICK if args.quick else FULL
    hashes_before = hashing.hash_count()

    graph = generate(params)
    prefix = Prefix.parse(AUDIT_PREFIX)
    net = build_bgp_network(graph)
    origin = true_stub(graph)
    net.originate(origin, prefix)
    events = net.run_to_quiescence()
    reach = net.reachability(prefix)
    tier1_core = list(graph.tier1_core())

    # the sweep: a shortest-route policy on every AS marks each
    # (AS, prefix) pair dirty; one epoch then runs a round per (AS,
    # exporting neighbor) pair that has providers, capped at max_rounds
    keystore = KeyStore(seed=SEED, key_bits=key_bits)
    monitor = Monitor(keystore, max_work_per_epoch=max_rounds).attach(net)
    started = time.perf_counter()
    for asn in net.as_names():
        monitor.policy(asn, ShortestRoute(), prefixes=(prefix,))
    epoch = monitor.run_epoch()
    sweep_seconds = time.perf_counter() - started
    if not epoch.events or not epoch.violation_free():
        sys.exit("PVR audit of an honest network was not clean")

    # every number in the narrative below (and in --json) comes from here
    audit = {
        "quick": args.quick,
        "ases": len(graph.ases()),
        "edges": graph.edge_count(),
        "tier1_core": tier1_core,
        "origin": origin,
        "events": events,
        "updates": net.total_updates(),
        "reached": sum(1 for r in reach.values() if r is not None),
        "forwarding_path": list(net.forwarding_path(tier1_core[0], prefix)),
        "rounds": len(epoch.events),
        "messages": epoch.messages,
        "bytes": epoch.bytes,
        "signatures": keystore.sign_count,
        "verifications": keystore.verify_count,
        "hashes": hashing.hash_count() - hashes_before,
        "sweep_seconds": sweep_seconds,
    }

    print(f"Generated topology: {audit['ases']} ASes, "
          f"{audit['edges']} relationships, "
          f"tier-1 core = {', '.join(tier1_core)}")
    caida_round_trip(graph)
    print(f"\nBGP converged in {events} events, "
          f"{audit['updates']} updates; "
          f"{audit['reached']}/{audit['ases']} ASes reach "
          f"{AUDIT_PREFIX} (origin {origin})")
    path = audit["forwarding_path"]
    print(f"Forwarding path {path[0]} -> origin: {' -> '.join(path)}")

    n = audit["rounds"]
    print(f"\nPVR audit: {n} verification rounds, all clean")
    print(f"  transport: {audit['messages']} messages, "
          f"{audit['bytes'] / 1024:.1f} KiB")
    print(f"  crypto:    {audit['signatures']} signatures, "
          f"{audit['verifications']} verifications, "
          f"{audit['hashes']} hashes")
    print(f"  wall time: {sweep_seconds * 1000:.0f} ms "
          f"({sweep_seconds / n * 1000:.1f} ms/round)")

    if args.json:
        Path(args.json).write_text(
            json.dumps(audit, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nAudit numbers written to {args.json}")


if __name__ == "__main__":
    sys.exit(main())
