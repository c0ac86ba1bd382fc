"""The churn CLI: ``python -m repro.cluster``.

Usage::

    python -m repro.cluster --list
    python -m repro.cluster --scenario churn-fig1
    python -m repro.cluster --workers 2 --churns 8 --violations 4
    python -m repro.cluster --kill-worker 1 --kill-at-epoch 3
    python -m repro.cluster --transport inline --no-verify
    python -m repro.cluster --journal cluster-journal --checkpoint-every 4

Builds a registered churn workload (:mod:`repro.cluster.workload`;
``--scenario``, default ``serve-churn``, the one workload that
``--prefixes`` / ``--churns`` / ``--violations`` size) with the
accountability ledger on, stands up its spec's
:class:`~repro.cluster.cluster.Cluster` and drives the script through
the admission plane, closing with one served ``AdjudicateRequest``:
the judge rules on every stored violation, and confirmed rulings slash.
It prints one row per epoch, the rulings, the trust ladder and the
hash-chained transition history.

A **deterministic chaos kill** (``--kill-worker``/``--kill-at-epoch``)
SIGKILLs the chosen worker mid-batch at the chosen epoch (one in which
it has rounds to run — an epoch served wholly from the cache involves
no worker); a survivor re-runs its rounds and a fresh worker is forked.
Afterwards the evidence trail is checked byte-for-byte against a
freshly driven unsharded Monitor (``--no-verify`` skips it), and
``--json`` writes the cluster metrics snapshot, with the ledger's own
snapshot under ``"ledger"``.

With ``--journal DIR`` the coordinator write-ahead-journals every state
change.  Re-running the *same* command after a crash (or a SIGKILL —
the CI durability gate does exactly that) recovers to the last commit
boundary, logs how many requests were already committed, serves only
the remainder (the closing adjudication included), and still checks
byte-parity over the *whole* trail — replayed prefix included.  The
worker count is not part of the journal: the re-run may use a different
``--workers``.

Exit status (the shared :mod:`repro.util.cli` contract): 0 on success;
1 on a parity mismatch, a failed online parity self-check, a chaos kill
that never fired, a history chain that fails to verify or a violation
found in an audit epoch (a planted ``--violations`` probe is expected
to be caught, so it fails nothing); 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys

from repro.audit.events import EpochOutcome
from repro.cluster import workload
from repro.cluster.metrics import REQUEST_COLUMNS, request_rows
from repro.cluster.requests import AdjudicateRequest
from repro.cluster.spec import ChaosSpec
from repro.ledger import confirmed
from repro.ledger.ledger import RULE_SLASH
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

#: the one workload the sizing flags apply to
SIZED = "serve-churn"

#: the flag that sets each field the spec, the script and the chaos
#: spec range-check: a usage error names the flag the user typed
FLAGS = {
    "workers": "--workers",
    "max_work": "--max-work",
    "parity_sample": "--parity-sample",
    "journal_checkpoint_every": "--checkpoint-every",
    "prefix_count": "--prefixes",
    "rounds": "--churns",
    "violation_every": "--violations",
    "worker": "--kill-worker",
    "epoch": "--kill-at-epoch",
    "after": "--kill-after",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Drive a registered churn workload through a "
        "verification cluster with the accountability ledger, optionally "
        "killing a worker, adjudicate every violation, and check "
        "byte-parity against an unsharded monitor.",
    )
    parser.add_argument("--scenario", default=SIZED, metavar="NAME",
                        help=f"registered churn workload (default: {SIZED})")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the registered churn workloads and exit")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default: 2)")
    parser.add_argument("--transport", default="process",
                        choices=["process", "inline"],
                        help="worker isolation (default: process)")
    parser.add_argument("--prefixes", type=int, metavar="P",
                        help=f"{SIZED}: prefixes originated (default: 8)")
    parser.add_argument("--churns", type=int, metavar="N",
                        help=f"{SIZED}: churn rounds in the script "
                        "(default: 8)")
    parser.add_argument("--violations", type=int, metavar="N",
                        help=f"{SIZED}: a Byzantine probe every N churn "
                        "rounds (default: never)")
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


def build_workload(args):
    """The chosen workload's ledger-enabled spec and its churn script.
    Every range check is the spec's own: a bad value raises
    ``ValueError`` / ``TypeError`` here."""
    sizing = {"prefixes": args.prefixes, "rounds": args.churns,
              "violation_every": args.violations}
    sizing = {k: v for k, v in sizing.items() if v is not None}
    if sizing and args.scenario != SIZED:
        raise ValueError(
            f"--prefixes, --churns and --violations size only the "
            f"{SIZED} workload, not {args.scenario!r}"
        )
    chaos = None
    if args.kill_worker is not None:
        chaos = ChaosSpec(
            worker=args.kill_worker,
            epoch=args.kill_at_epoch,
            after=args.kill_after,
        )
    return workload.get(
        args.scenario,
        **sizing,
        workers=args.workers,
        transport=args.transport,
        rng_seed=args.seed,
        key_bits=args.key_bits,
        max_work=args.max_work,
        parity_sample=args.parity_sample,
        chaos=chaos,
        ledger=True,
        flight_dump=args.flight_dump,
        journal=args.journal,
        journal_checkpoint_every=args.checkpoint_every,
    )


def run(args, spec, requests) -> int:
    adjudicate = AdjudicateRequest()
    script = (*requests, adjudicate)
    served = EpochOutcome()
    rulings = {}
    cluster = spec.build()
    try:
        skip = cluster.recovered_requests
        if skip:
            obs_log.emit(
                "cluster",
                f"recovered from journal at request boundary {skip} — "
                f"skipping {min(skip, len(script))} already-committed "
                f"request(s)",
                recovered_requests=skip,
            )
        for request in script[skip:]:
            payload = cluster.request(request).payload
            if request is adjudicate:
                rulings = payload
            else:
                served.reports.extend(payload.reports)
        if args.flight_dump and not cluster.recorder.dumped:
            cluster.recorder.dump(args.flight_dump, "end of run")
        snapshot = cluster.snapshot()
        ledger = cluster.ledger
        violations = cluster.evidence.violations()
        mismatches = []
        if not args.no_verify:
            mismatches = workload.reference_mismatches(
                spec, requests, cluster.evidence
            )
    finally:
        cluster.stop()

    print_table(
        f"audit epochs — {args.scenario}, {args.transport} transport",
        ["epoch", "events", "verified", "reused", "deferred",
         "signs", "verifies", "wall ms"],
        [(e.epoch, len(e.events), e.verified, e.reused, len(e.deferred),
          e.signatures, e.verifications, f"{e.wall_seconds * 1000:.1f}")
         for e in served.reports],
    )
    placement = snapshot["placement"]
    epochs = snapshot["epochs"]
    print_table(
        "cluster totals",
        ["workers", "epochs", "events", "verified", "reused", "signs",
         "verifies", "violations", "probes caught"],
        [(placement["spec"]["shards"], epochs["count"], epochs["events"],
          epochs["verified"], epochs["reused"], served.signatures,
          served.verifications, epochs["violations"],
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

    if rulings:
        # every slash in the history is a served adjudication's
        demoted = {
            r.evidence_seqs[0] for r in ledger.history.records()
            if r.rule == RULE_SLASH
        }
        print_table(
            "judge rulings",
            ["seq", "asn", "judge says", "demoted"],
            [(event.seq, event.asn,
              "CONFIRMED" if confirmed(rulings[event.seq]) else "dismissed",
              "yes" if event.seq in demoted else "no")
             for event in violations],
        )
    print_table(
        "trust ladder",
        ["asn", "level", "streak", "clean", "violations", "slashes"],
        [(r.asn, r.level.name, r.streak, r.clean_events,
          r.violation_events, r.slashes) for r in ledger.records()],
    )
    print_table(
        "transition history (hash-chained)",
        ["#", "asn", "epoch", "transition", "rule", "evidence seqs",
         "digest"],
        [(r.index, r.asn, r.epoch,
          f"{r.from_level.name}->{r.to_level.name}", r.rule,
          ",".join(str(s) for s in r.evidence_seqs),
          r.digest[:12] + "…")
         for r in ledger.history.records()],
    )

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
    history = snapshot["ledger"]["history"]
    obs_log.emit(
        "ledger",
        f"history chain verified: {history['verified']} "
        f"(head {ledger.history.head[:16]}…, "
        f"{len(ledger.history)} transitions)",
        verified=history["verified"],
        transitions=len(ledger.history),
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
    if spec.chaos is not None and not snapshot["respawns"]:
        status = fail(
            "cluster",
            f"chaos kill of worker {spec.chaos.worker} at epoch "
            f"{spec.chaos.epoch} never fired",
        )
    if not history["verified"]:
        status = fail("ledger", "the transition history chain is broken")
    if epochs["violations"]:
        status = fail(
            "cluster",
            f"{epochs['violations']} violation event(s) in the audit epochs",
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
    if args.list_scenarios:
        print_table("registered churn workloads", ["name", "description"],
                    list(workload.names().items()))
        return EXIT_OK
    if args.checkpoint_every and not args.journal:
        return usage_error("--checkpoint-every requires --journal")
    if (args.kill_worker is None) != (args.kill_at_epoch is None):
        return usage_error(
            "--kill-worker and --kill-at-epoch must be given together"
        )
    try:
        spec, requests = build_workload(args)
    except KeyError as exc:
        return usage_error(exc.args[0])
    except (TypeError, ValueError) as exc:
        # "rounds must be >= 1, got 0" -> "--churns must be >= 1, got 0"
        field, _, rest = str(exc).partition(" ")
        return usage_error(f"{FLAGS.get(field, field)} {rest}")
    return run(args, spec, requests)


if __name__ == "__main__":
    sys.exit(main())
