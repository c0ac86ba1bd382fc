"""The ``cluster-durable`` coordinator, in a process of its own.

``workloads.Coordinator`` starts this script so the benchmark can
SIGKILL a live coordinator at a chosen request boundary without
touching any private ``Cluster`` attribute.  It builds the journaled
cluster and the same deterministic script the parent builds, then
serves ``<request index>`` lines from stdin, acknowledging each with one
JSON line (marked ``"bench"``, so the program's own logging on stdout
is never mistaken for it).  ``stop`` shuts the cluster down cleanly.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def say(kind: str, **fields) -> None:
    print(json.dumps({"bench": kind, **fields}), flush=True)


def main() -> int:
    config = json.loads(sys.argv[1])
    sizes = workloads.sizes_for(
        "cluster-durable", config["seconds"], config["smoke"]
    )
    script = workloads.cluster_script(sizes, config["seed"])
    spec = workloads.cluster_spec(
        sizes,
        trace=config["trace"],
        journal=config["journal"],
        journal_checkpoint_every=4,
    )
    started = time.perf_counter()
    cluster = spec.build()
    say("ready", build_s=time.perf_counter() - started)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            cluster.request(script[int(command)])
            metrics = cluster.metrics
            say(
                "ack",
                index=int(command),
                events=len(cluster.evidence),
                journal=cluster.journal.stats(),
                worker_events=metrics.worker_events,
                respawns=len(metrics.respawns),
                epochs=metrics.epochs,
                deferred=metrics.deferred,
            )
    finally:
        cluster.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
