#!/usr/bin/env python3
"""The cluster API end to end: placement-driven multi-process audit.

The serve demo (``serve_demo.py``) shards *execution* under one
process; this walkthrough distributes the whole audit plane.  A
declarative :class:`~repro.cluster.spec.ClusterSpec` builds a
:class:`~repro.cluster.cluster.Cluster` of fully independent Monitor
workers — each in its own OS process with its own network replica,
keystore and evidence store — behind an IPC admission plane:

* churn requests broadcast to every worker; the workers *co-plan* each
  epoch deterministically and execute only the slice their
  ``ConsistentHash`` placement assigns them, over their own wire;
* the coordinator folds the slices back in plan order, so the trail is
  byte-identical to an unsharded monitor (we prove it at the end);
* midway we **reshard online**: a third worker spawns, fast-forwards
  from the churn log, and the moved (AS, prefix) ownership migrates its
  commitment-cache entries — the settled sweep afterwards still costs
  zero signatures;
* a Byzantine violation probe is caught on the owning worker and
  adjudicated from the folded trail.

Run:  python examples/cluster_demo.py
"""

from repro.bgp.prefix import Prefix
from repro.cluster import (
    AdjudicateRequest,
    ChurnRequest,
    ClusterSpec,
    PolicySpec,
    QueryRequest,
)
from repro.cluster.workload import drive_monitor, trail_mismatches
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.cluster.requests import AuditProbe
from repro.pvr.scenarios import flap_session, restore_session, serve_network

PREFIXES = 6
WORKERS = 2


def build_network():
    return serve_network(PREFIXES)[0]


def main() -> None:
    prefixes = tuple(
        Prefix.parse(f"10.{i}.0.0/16") for i in range(PREFIXES)
    )
    spec = ClusterSpec(
        network=build_network,
        policies=(
            PolicySpec(
                "A",
                ShortestRoute(),
                {"recipients": ("B",), "name": "A/min->B", "max_length": 8},
            ),
        ),
        workers=WORKERS,
        placement="consistent",
        transport="process",
        rng_seed=2011,
        parity_sample=2,
    )
    requests = [
        ChurnRequest(),  # audit the converged state
        ChurnRequest(steps=((flap_session, ("O", "N2")),)),
        ChurnRequest(steps=((restore_session, ("O", "N2")),)),
    ]

    cluster = spec.build()
    print(f"== cluster up: {cluster.workers} process workers, "
          f"{type(cluster.placement).__name__} placement ==")
    try:
        # 1. churn through the admission plane
        for request in requests:
            outcome = cluster.request(request).payload
            print(f"  churn served: {len(outcome.events)} events across "
                  f"{len(outcome.reports)} epoch(s)")

        # 2. reshard online: grow to three workers, migrate ownership
        record = cluster.reshard(workers=WORKERS + 1)
        print(f"  online reshard -> {cluster.workers} workers: "
              f"{record['moved_pairs']}/{record['tracked_pairs']} pairs "
              f"moved, {record['migrated_cache_entries']} cache entries "
              f"migrated")

        # 3. a settled resync sweep: migrated cache entries are reused,
        # not re-proved — ownership moved, the crypto did not
        sweep = ChurnRequest(marks=tuple(("A", p) for p in prefixes))
        requests.append(sweep)
        report = cluster.request(sweep).payload.reports[0]
        print(f"  settled sweep after reshard: {report.reused} of "
              f"{len(report.events)} tuples from cache "
              f"({report.signatures} signatures)")

        # 4. Byzantine violation probe, caught on the owning worker
        probe = ChurnRequest(probes=(
            AuditProbe("A", prefixes[0], "B", prover=LongerRouteProver),
        ))
        requests.append(probe)
        event = cluster.request(probe).payload.probe_events[0]
        print(f"  violation probe: caught={event.violation_found()} "
              f"(detected by {', '.join(event.detecting_parties())})")

        violations = cluster.request(
            QueryRequest(what="violations")
        ).payload
        rulings = cluster.request(AdjudicateRequest()).payload
        guilty = sum(1 for ruling in rulings.values() if ruling.guilty())
        print(f"  evidence: {len(violations)} violation(s) stored, "
              f"{guilty} adjudicated guilty")

        # 5. the acceptance criterion, live: byte parity with an
        # unsharded monitor driven over the same script
        monitor = spec.build_monitor()
        drive_monitor(monitor, requests)
        mismatches = trail_mismatches(cluster.evidence, monitor.evidence)
        print(f"  parity vs unsharded monitor: "
              f"{'BYTE-IDENTICAL' if not mismatches else mismatches}")

        snapshot = cluster.snapshot()
        per_worker = snapshot["placement"]["load"]
        parity = snapshot["parity"]
        print("\n== metrics ==")
        print(f"  fresh verifications per worker: {per_worker}")
        print(f"  online parity self-checks: {parity['checked']} run, "
              f"{parity['failed']} failed")
        assert not mismatches and parity["failed"] == 0
    finally:
        cluster.stop()


if __name__ == "__main__":
    main()
