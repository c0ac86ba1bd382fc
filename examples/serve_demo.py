#!/usr/bin/env python3
"""The serving layer end to end: admit → shard → verify → merge.

Earlier PRs built the verification engine and the continuous audit
Monitor; this walkthrough puts the new
:mod:`repro.serve` layer in front of them.  A
:class:`~repro.serve.service.VerificationService` with two shards
fronts the multi-prefix Figure 1 scenario, and we drive it the way a
deployment would:

* submit-churn requests coalesce into sharded verification epochs
  (the (AS, prefix) shard key partitions the work across worker
  processes, rounds pre-allocated so verdicts are byte-identical to an
  unsharded monitor);
* a Byzantine violation probe is caught mid-stream and adjudicated
  on demand;
* query-evidence requests read the merged trail between epochs;
* the metrics ledger reports throughput and p50/p90/p99 latency per
  request type, plus the verdict-parity self-check counters.

Run:  python examples/serve_demo.py
"""

import asyncio

from repro.cluster import (
    AdjudicateRequest,
    AuditProbe,
    ChurnRequest,
    QueryRequest,
)
from repro.promises.spec import ExistentialPromise, ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import flap_session, restore_session, serve_network
from repro.serve import VerificationService

SHARDS = 2
PREFIXES = 6


async def main() -> None:
    network, prefixes = serve_network(PREFIXES)
    service = VerificationService(
        network,
        shards=SHARDS,
        rng_seed=2011,
        queue_depth=32,
        parity_sample=1,  # re-prove every fresh verdict: full self-check
        max_events=64,    # bounded evidence trail, violations pinned
    )
    service.policy("A", ShortestRoute(), recipients=("B",),
                   name="A/shortest->B", max_length=8)
    service.policy("A", lambda providers: ExistentialPromise(providers),
                   recipients=("B",), name="A/exists->B", max_length=8)

    await service.start()
    print(f"== service up: {SHARDS} shards over {PREFIXES} prefixes ==")

    # 1. the initial converged state, audited through the shards
    first = await service.request(ChurnRequest())
    outcome = first.payload
    print(f"  initial audit: {len(outcome.events)} events across "
          f"{len(outcome.reports)} epoch(s), "
          f"{sum(r.verified for r in outcome.reports)} verified")

    # 2. churn that settles back: the flap and restore coalesce into
    # one epoch, whose inputs match the last verification — every tuple
    # is served from the commitment cache with zero crypto operations
    bounced = await service.request(ChurnRequest(
        steps=(flap_session("O", "N2"), restore_session("O", "N2")),
    ))
    report = bounced.payload.reports[0]
    print(f"  churn settled back: {report.reused} of "
          f"{len(report.events)} tuples served from cache "
          f"({report.signatures} signatures)")

    # 3. violation injection: a Byzantine prover impersonates A
    probed = await service.request(ChurnRequest(probes=(
        AuditProbe("A", prefixes[0], "B", prover=LongerRouteProver),
    )))
    event = probed.payload.probe_events[0]
    print(f"  violation probe: caught={event.violation_found()} "
          f"(detected by {', '.join(event.detecting_parties())})")

    # 4. query the merged evidence trail
    violations = (await service.request(
        QueryRequest(what="violations")
    )).payload
    rulings = (await service.request(AdjudicateRequest())).payload
    guilty = sum(1 for ruling in rulings.values() if ruling.guilty())
    print(f"  evidence: {len(violations)} violation(s) stored, "
          f"{guilty} adjudicated guilty")

    await service.stop()

    snapshot = service.metrics.snapshot()
    print("\n== metrics ==")
    for kind, record in snapshot["requests"].items():
        latency = record["latency"]
        if not latency["count"]:
            continue
        print(f"  {kind:<10} completed={record['completed']:<3} "
              f"p50={latency['p50_s'] * 1000:6.1f} ms  "
              f"p99={latency['p99_s'] * 1000:6.1f} ms")
    parity = snapshot["parity"]
    print(f"  parity self-checks: {parity['checked']} run, "
          f"{parity['failed']} failed")
    shard_load = snapshot["placement"]["load"]
    print(f"  fresh verifications per shard: {shard_load}")
    assert parity["failed"] == 0


if __name__ == "__main__":
    asyncio.run(main())
