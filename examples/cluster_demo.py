#!/usr/bin/env python3
"""The cluster API end to end: one planner, a pool of stateless round
workers, and a journal that outlives the coordinator.

The serve demo (``serve_demo.py``) runs the churn → verdict pipeline
behind an asyncio front-end; this walkthrough runs the same pipeline
in its durable host.  A declarative
:class:`~repro.cluster.spec.ClusterSpec` builds a
:class:`~repro.cluster.cluster.Cluster`: one
:class:`~repro.audit.monitor.Monitor` plans every epoch and deals the
fresh rounds to forked worker processes that hold keys and nothing
else.  Three things go wrong on purpose:

* a **worker is SIGKILLed** mid-batch (``ChaosSpec``): its unfinished
  rounds re-run on the survivor under the same round numbers and
  nonces, and a fresh worker is forked in its place;
* the **coordinator is SIGKILLed** between requests: a second
  coordinator replays the write-ahead journal to the last commit
  boundary and carries on with a fresh pool — and a settled sweep
  still costs zero signatures, because the reuse cache came back too;
* a **Byzantine prover** lies to a neighbor: the probe is caught and
  adjudicated from the trail.

At the end the trail is compared, byte for byte, with an unsharded
monitor driven over the same script.

Run:  python examples/cluster_demo.py
"""

import multiprocessing
import os
import signal
import tempfile

from repro.cluster import (
    AdjudicateRequest,
    AuditProbe,
    ChaosSpec,
    ChurnRequest,
    QueryRequest,
)
from repro.cluster.workload import reference_mismatches, serve_spec
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import flap_session, restore_session, serve_prefixes

PREFIXES = 6
WORKERS = 2


def first_life(spec, requests) -> None:
    """The coordinator's first incarnation: serves ``requests``, loses
    a worker on the way, then dies without warning."""
    cluster = spec.build()
    print(f"== cluster up: {cluster.workers} process workers ==")
    for request in requests:
        outcome = cluster.request(request).payload
        print(f"  churn served: {len(outcome.events)} events across "
              f"{len(outcome.reports)} epoch(s)"
              + (f", {outcome.respawns} worker replaced"
                 if outcome.respawns else ""))
    for respawn in cluster.snapshot()["respawns"]:
        print(f"  worker {respawn['worker']} died "
              f"({respawn['reason']}) and was replaced")
    print("  coordinator SIGKILLed", flush=True)
    os.kill(os.getpid(), signal.SIGKILL)


def main() -> None:
    prefixes = serve_prefixes(PREFIXES)
    with tempfile.TemporaryDirectory(prefix="cluster-demo-") as journal:
        # serve_network(PREFIXES) with A's shortest-route promise to B
        spec = serve_spec(
            PREFIXES,
            workers=WORKERS,
            transport="process",
            rng_seed=2011,
            parity_sample=2,
            journal=journal,
            # worker 1 dies in epoch 2 with one result delivered
            chaos=ChaosSpec(worker=1, epoch=2, after=1),
        )
        requests = [
            ChurnRequest(),  # audit the converged state
            ChurnRequest(steps=((flap_session, ("O", "N2")),)),
            ChurnRequest(steps=((restore_session, ("O", "N2")),)),
        ]

        # 1. churn through the admission plane, in a coordinator that
        # loses a worker and is then killed itself
        doomed = multiprocessing.get_context("fork").Process(
            target=first_life, args=(spec, requests)
        )
        doomed.start()
        doomed.join()

        # 2. a second coordinator over the same journal
        cluster = spec.build()
        try:
            recovery = cluster.snapshot()["recoveries"][0]
            print(f"== recovered from the journal at request boundary "
                  f"{cluster.recovered_requests}: "
                  f"{recovery['replayed_records']} records replayed, "
                  f"{len(cluster.evidence)} events back ==")

            # 3. a settled resync sweep: the recovered cache is reused,
            # not re-proved — the coordinator moved, the crypto did not
            sweep = ChurnRequest(marks=tuple(("A", p) for p in prefixes))
            requests.append(sweep)
            report = cluster.request(sweep).payload.reports[0]
            print(f"  settled sweep after recovery: {report.reused} of "
                  f"{len(report.events)} tuples from cache "
                  f"({report.signatures} signatures)")

            # ... and fresh churn runs on the new pool
            flap = ChurnRequest(steps=((flap_session, ("X", "N1")),))
            requests.append(flap)
            report = cluster.request(flap).payload.reports[0]
            print(f"  churn served: {report.verified} fresh rounds on "
                  f"the new pool")

            # 4. Byzantine violation probe, caught on the wire
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
            guilty = sum(1 for r in rulings.values() if r.guilty())
            print(f"  evidence: {len(violations)} violation(s) stored, "
                  f"{guilty} adjudicated guilty")

            # 5. the acceptance criterion, live: byte parity with an
            # unsharded monitor driven over the same script
            mismatches = reference_mismatches(
                spec, requests, cluster.evidence
            )
            print(f"  parity vs unsharded monitor: "
                  f"{'BYTE-IDENTICAL' if not mismatches else mismatches}")

            snapshot = cluster.snapshot()
            parity = snapshot["parity"]
            print("\n== metrics ==")
            print(f"  fresh verifications per worker: "
                  f"{snapshot['placement']['load']}")
            print(f"  online parity self-checks: {parity['checked']} run, "
                  f"{parity['failed']} failed")
            assert cluster.recovered_requests == 3
            assert guilty == 1
            assert not mismatches and parity["failed"] == 0
        finally:
            cluster.stop()


if __name__ == "__main__":
    main()
