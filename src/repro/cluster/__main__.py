"""The cluster CLI: ``python -m repro.cluster``.

Usage::

    python -m repro.cluster --workers 2 --churns 12
    python -m repro.cluster --kill-worker 1 --kill-at-epoch 3
    python -m repro.cluster --transport inline --no-verify
    python -m repro.cluster --journal cluster-journal --checkpoint-every 4

Builds the ``serve-churn`` workload (:mod:`repro.cluster.workload`),
stands up its spec's :class:`~repro.cluster.cluster.Cluster` — one
planning Monitor over a pool of stateless round workers — and drives
the script through the admission plane, with an optional
**deterministic chaos kill**
(``--kill-worker``/``--kill-at-epoch``): the chosen worker is SIGKILLed
mid-batch at the chosen epoch (one in which it has rounds to run — an
epoch served wholly from the cache involves no worker), its unfinished
rounds are re-run on a survivor, and a fresh worker is forked in its
place.  Afterwards the evidence trail is checked byte-for-byte against
a freshly driven unsharded Monitor (``--no-verify`` skips it) — so with
a kill the gate is literally "the trail survives a worker death
unchanged" — and ``--json`` writes the schema-versioned cluster metrics
snapshot.

With ``--journal DIR`` the coordinator write-ahead-journals every state
change.  Re-running the *same* command after a crash (or a SIGKILL —
the CI durability gate does exactly that) recovers to the last commit
boundary, logs how many requests were already committed, re-drives only
the remainder, and still checks byte-parity over the *whole* trail —
replayed prefix included.  The worker count is not part of the
journal: the re-run may use a different ``--workers``.

Exit status (the shared :mod:`repro.util.cli` contract): 0 on success,
1 on any parity mismatch or failed online parity self-check, 2 on bad
usage.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs import log as obs_log
from repro.util.cli import (
    EXIT_OK,
    EXIT_FAILURE,
    add_common_arguments,
    fail,
    usage_error,
    write_json,
)
from repro.util.tables import print_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Drive a churn workload through a multi-process "
        "verification cluster, optionally killing a worker, and check "
        "byte-parity against an unsharded monitor.",
    )
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default: 2)")
    parser.add_argument("--transport", default="process",
                        choices=["process", "inline"],
                        help="worker isolation (default: process)")
    parser.add_argument("--prefixes", type=int, default=8, metavar="P",
                        help="prefixes originated in the scenario "
                        "(default: 8)")
    parser.add_argument("--churns", type=int, default=12, metavar="N",
                        help="churn rounds in the script (default: 12)")
    parser.add_argument("--violations", type=int, default=0, metavar="N",
                        help="Byzantine probe every N churn rounds "
                        "(default: never)")
    parser.add_argument("--max-work", type=int, default=None, metavar="N",
                        help="fresh verifications per epoch bound")
    parser.add_argument("--parity-sample", type=int, default=1, metavar="K",
                        help="re-prove every Kth fresh verdict online; "
                        "0 disables (default: 1)")
    parser.add_argument("--kill-worker", type=int, default=None,
                        metavar="W", help="chaos: SIGKILL this worker "
                        "mid-batch (with --kill-at-epoch)")
    parser.add_argument("--kill-at-epoch", type=int, default=None,
                        metavar="K", help="chaos: the epoch at which "
                        "--kill-worker dies")
    parser.add_argument("--kill-after", type=int, default=1, metavar="N",
                        help="chaos: results the dying worker "
                        "streams out first (default: 1)")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="write-ahead journal directory: makes the "
                        "coordinator durable, and re-running the same "
                        "command recovers from it after a crash")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N", help="checkpoint the coordinator "
                        "into the journal every N commit boundaries "
                        "(default: 0 = never)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the unsharded-reference parity check")
    parser.add_argument("--flight-dump", metavar="PATH", default=None,
                        help="flight-recorder JSONL dump path: written "
                        "on a worker reap, parity failure or cluster "
                        "error, or (if none fired) at the end of the "
                        "run; render with 'python -m repro.obs timeline'")
    add_common_arguments(
        parser,
        seed_help="keystore / nonce seed (default: 2011)",
        json_help="write the metrics snapshot here",
    )
    return parser


def run(args) -> int:
    from repro.cluster import workload
    from repro.cluster.metrics import REQUEST_COLUMNS, request_rows
    from repro.cluster.spec import ChaosSpec

    chaos = None
    if args.kill_worker is not None:
        chaos = ChaosSpec(
            worker=args.kill_worker,
            epoch=args.kill_at_epoch,
            after=args.kill_after,
        )

    spec, requests = workload.get(
        "serve-churn",
        prefixes=args.prefixes,
        rounds=args.churns,
        violation_every=args.violations,
        workers=args.workers,
        transport=args.transport,
        rng_seed=args.seed,
        key_bits=args.key_bits,
        max_work=args.max_work,
        parity_sample=args.parity_sample,
        chaos=chaos,
        flight_dump=args.flight_dump,
        journal=args.journal,
        journal_checkpoint_every=args.checkpoint_every,
    )

    cluster = spec.build()
    try:
        skip = cluster.recovered_requests
        if skip:
            obs_log.emit(
                "cluster",
                f"recovered from journal at request boundary {skip} — "
                f"skipping {min(skip, len(requests))} already-committed "
                f"request(s)",
                recovered_requests=skip,
            )
        for request in requests[skip:]:
            cluster.request(request)
        if args.flight_dump and not cluster.recorder.dumped:
            cluster.recorder.dump(args.flight_dump, "end of run")
        snapshot = cluster.snapshot()
        mismatches = []
        if not args.no_verify:
            mismatches = workload.reference_mismatches(
                spec, requests, cluster.evidence
            )
    finally:
        cluster.stop()

    placement = snapshot["placement"]
    epochs = snapshot["epochs"]
    print_table(
        f"cluster — {args.transport} transport",
        ["workers", "epochs", "events", "verified", "reused",
         "violations", "probes caught"],
        [(placement["spec"]["shards"], epochs["count"], epochs["events"],
          epochs["verified"], epochs["reused"], epochs["violations"],
          snapshot["probes"]["violations"])],
    )
    worker_rows = sorted(
        placement["load"].items(), key=lambda kv: int(kv[0])
    )
    if worker_rows:
        print_table(
            "fresh verifications per worker",
            ["worker", "fresh"],
            worker_rows,
        )
    latency_rows = request_rows(snapshot)
    if latency_rows:
        print_table("request latency", REQUEST_COLUMNS, latency_rows)

    if args.json:
        write_json(args.json, snapshot, tag="cluster")

    for respawn in snapshot["respawns"]:
        obs_log.emit(
            "cluster",
            f"worker {respawn['worker']} died ({respawn['reason']}) "
            f"and was replaced",
            worker=respawn["worker"],
        )
    for recovery in snapshot["recoveries"]:
        obs_log.emit(
            "cluster",
            f"journal recovery: read {recovery['replayed_records']} "
            f"record(s), re-served {recovery['re_served']} command(s) "
            f"to epoch {recovery['epoch']} / request boundary "
            f"{recovery['committed_requests']} "
            f"({recovery['spawned_workers']} worker(s) forked)",
            committed=recovery["committed_requests"],
        )
    journal_stats = snapshot.get("journal")
    if journal_stats:
        obs_log.emit(
            "cluster",
            f"journal: {journal_stats['appended']} record(s) appended, "
            f"{journal_stats['fsyncs']} fsync(s)",
            appended=journal_stats["appended"],
            fsyncs=journal_stats["fsyncs"],
        )

    parity = snapshot["parity"]
    obs_log.emit(
        "cluster",
        f"online parity self-checks: {parity['checked']} run, "
        f"{parity['failed']} failed",
        checked=parity["checked"],
        failed=parity["failed"],
    )
    status = EXIT_OK
    if parity["failed"]:
        status = fail(
            "cluster",
            f"{parity['failed']} online parity self-check(s) failed",
        )
    if chaos is not None and not snapshot["respawns"]:
        status = fail(
            "cluster",
            f"chaos kill of worker {chaos.worker} at epoch {chaos.epoch} "
            f"never fired",
        )
    if args.no_verify:
        obs_log.emit("cluster", "reference parity check skipped (--no-verify)")
    elif mismatches:
        print(f"[cluster] FAIL: trail diverged from the unsharded "
              f"reference ({len(mismatches)} mismatch(es)):",
              file=sys.stderr)
        for line in mismatches:
            print(f"  - {line}", file=sys.stderr)
        status = EXIT_FAILURE
    else:
        obs_log.emit(
            "cluster",
            "evidence trail is byte-identical to the unsharded "
            "reference",
        )
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs_log.configure_logging(json_mode=args.log_json)
    if args.workers < 1:
        return usage_error(f"--workers must be >= 1, got {args.workers}")
    if args.prefixes < 1:
        return usage_error(
            f"--prefixes must be >= 1, got {args.prefixes}"
        )
    if args.checkpoint_every < 0:
        return usage_error(
            f"--checkpoint-every must be >= 0, got {args.checkpoint_every}"
        )
    if args.checkpoint_every and not args.journal:
        return usage_error("--checkpoint-every requires --journal")
    if (args.kill_worker is None) != (args.kill_at_epoch is None):
        return usage_error(
            "--kill-worker and --kill-at-epoch must be given together"
        )
    if args.kill_worker is not None:
        if not 0 <= args.kill_worker < args.workers:
            return usage_error(
                f"--kill-worker must name one of the {args.workers} "
                f"workers, got {args.kill_worker}"
            )
        if args.kill_at_epoch < 1:
            return usage_error(
                f"--kill-at-epoch must be >= 1, got {args.kill_at_epoch}"
            )
        if args.kill_after < 0:
            return usage_error(
                f"--kill-after must be >= 0, got {args.kill_after}"
            )
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
