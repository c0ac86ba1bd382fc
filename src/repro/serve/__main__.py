"""The serving-layer CLI: ``python -m repro.serve``.

Usage::

    python -m repro.serve --shards 4 --requests 200
    python -m repro.serve --shards 2 --duration 10 --rate 40 \\
        --violations 10 --json serve-metrics.json
    python -m repro.serve --shards 1 --rate 64 --requests 72 \\
        --queue-depth 16 --gate-p99 0.25 --json overload.json

Builds the serving scenario (:func:`repro.cluster.workload.serve_spec`),
starts a :class:`~repro.serve.service.VerificationService` over it with
the requested shard count, and drives the open-loop load generator
against it.  Prints per-request-type latency percentiles and the
epoch/shard/parity counters; ``--json`` writes the schema-versioned
metrics snapshot.

Queries never queue — the admission plane answers them at the door
from the trail as of the last committed write group — so overload shows
up as refused *writes* and growing churn latency, never as slow reads.
``--gate-p99 S`` turns that into an exit gate: the run fails if the
completed-query p99 (the snapshot's own
``requests.query.latency.p99_s``) exceeds ``S`` or any query was
refused.

Exit status (the shared :mod:`repro.util.cli` contract): 0 on success,
1 when any verdict-parity self-check failed (or request futures
errored, or the ``--gate-p99`` gate tripped), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.cluster.metrics import REQUEST_COLUMNS, request_rows
from repro.cluster.workload import serve_spec
from repro.obs import log as obs_log
from repro.pvr.scenarios import serve_prefixes
from repro.util.cli import (
    EXIT_OK,
    add_common_arguments,
    fail,
    usage_error,
    write_json,
)
from repro.util.tables import print_table

from repro.serve.loadgen import (
    LoadProfile,
    ServeWorkload,
    build_schedule,
    run_open_loop,
)
from repro.serve.service import VerificationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the sharded verification service under an "
        "open-loop generated load and report latency percentiles.",
    )
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="worker shards (default: 2)")
    parser.add_argument("--prefixes", type=int, default=8, metavar="P",
                        help="prefixes originated in the scenario "
                        "(default: 8)")
    parser.add_argument("--requests", type=int, default=None, metavar="N",
                        help="total requests (default: 100, or "
                        "duration x rate)")
    parser.add_argument("--duration", type=float, default=None, metavar="S",
                        help="target run length in seconds (with --rate)")
    parser.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="open-loop arrival rate; omit to fire "
                        "back-to-back")
    parser.add_argument("--queue-depth", type=int, default=64, metavar="N",
                        help="bound on queued writes; reads never "
                        "queue (default: 64)")
    parser.add_argument("--batch-max", type=int, default=16, metavar="N",
                        help="max requests coalesced per dispatch "
                        "(default: 16)")
    parser.add_argument("--max-events", type=int, default=None, metavar="N",
                        help="evidence-store eviction bound")
    parser.add_argument("--violations", type=int, default=0, metavar="N",
                        help="inject a promise violation every N churn "
                        "requests (default: never)")
    parser.add_argument("--zipf", type=float, default=1.1, metavar="S",
                        help="hot-prefix skew exponent (default: 1.1)")
    parser.add_argument("--parity-sample", type=int, default=4, metavar="K",
                        help="re-prove every Kth fresh verdict as a "
                        "parity self-check; 0 disables (default: 4)")
    parser.add_argument("--gate-p99", type=float, default=None,
                        metavar="S", help="exit 1 if the completed-query "
                        "p99 exceeds this, or any query was refused")
    add_common_arguments(
        parser,
        json_help="write the metrics snapshot here",
    )
    return parser


async def serve_and_load(args) -> tuple:
    scenario = serve_spec(args.prefixes)
    service = VerificationService(
        scenario.network(),
        shards=args.shards,
        key_bits=args.key_bits,
        rng_seed=args.seed,
        queue_depth=args.queue_depth,
        batch_max=args.batch_max,
        max_events=args.max_events,
        parity_sample=args.parity_sample,
    )
    for policy in scenario.policies:
        policy.install(service.monitor)

    requests = args.requests
    if requests is None:
        if args.duration is not None:
            requests = max(1, int(args.duration * args.rate))
        else:
            requests = 100
    profile = LoadProfile(
        requests=requests,
        rate=args.rate,
        zipf_s=args.zipf,
        violation_every=args.violations,
        seed=args.seed,
    )
    workload = ServeWorkload(
        prefixes=serve_prefixes(args.prefixes),
        flappable=(("O", "N2"), ("X", "N1")),
        violator=("A", "B") if args.violations else None,
    )
    await service.start()
    try:
        schedule = build_schedule(profile, workload)
        report = await run_open_loop(service, schedule)
    finally:
        await service.stop()
    return service, report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs_log.configure_logging(json_mode=args.log_json)
    if args.shards < 1:
        return usage_error(f"--shards must be >= 1, got {args.shards}")
    if args.prefixes < 1:
        return usage_error(
            f"--prefixes must be >= 1, got {args.prefixes}"
        )
    if args.rate is not None and args.rate <= 0:
        return usage_error(f"--rate must be positive, got {args.rate}")
    if args.duration is not None and args.rate is None:
        return usage_error("--duration requires --rate")
    service, report = asyncio.run(serve_and_load(args))
    snapshot = service.metrics.snapshot()

    print_table(
        f"request latency — {args.shards} shard(s)",
        REQUEST_COLUMNS,
        request_rows(snapshot),
    )
    epochs = snapshot["epochs"]
    probes = snapshot["probes"]
    print_table(
        "epoch pipeline",
        ["epochs", "coalesced", "events", "verified", "reused",
         "violations", "probes", "caught", "evicted"],
        [(epochs["count"], epochs["coalesced_requests"], epochs["events"],
          epochs["verified"], epochs["reused"], epochs["violations"],
          probes["count"], probes["violations"],
          service.evidence.evicted)],
    )
    shard_rows = sorted(
        snapshot["placement"]["load"].items(),
        key=lambda kv: int(kv[0]),
    )
    if shard_rows:
        print_table(
            "fresh verifications per pool worker",
            ["worker", "rounds"],
            shard_rows,
        )

    if args.json:
        write_json(args.json, snapshot, tag="serve")

    parity = snapshot["parity"]
    obs_log.emit(
        "serve",
        f"{report.delivered}/{report.offered} requests admitted "
        f"({report.rejected} rejected); parity checks: "
        f"{parity['checked']} run, "
        f"{parity['failed']} failed",
        delivered=report.delivered,
        offered=report.offered,
        parity_failed=parity["failed"],
    )
    if report.errors:
        return fail(
            "serve",
            f"{len(report.errors)} request(s) errored; "
            f"first: {report.errors[0]!r}",
        )
    if parity["failed"]:
        return fail(
            "serve",
            f"{parity['failed']} verdict-parity check(s) failed",
        )
    if args.gate_p99 is not None:
        query = snapshot["requests"].get("query")
        p99 = query["latency"]["p99_s"] if query else None
        if query and query["rejected"]:
            return fail(
                "serve", f"{query['rejected']} query(ies) refused at the door"
            )
        if p99 is not None and p99 > args.gate_p99:
            return fail(
                "serve",
                f"query p99 {p99:.4f}s exceeds the --gate-p99 bound "
                f"{args.gate_p99:.3f}s",
            )
        shown = "n/a" if p99 is None else f"{p99 * 1000:.1f} ms"
        obs_log.emit(
            "serve",
            f"gate-p99 ok: query p99 {shown} <= "
            f"{args.gate_p99 * 1000:.0f} ms, no query refused",
            gate_p99=args.gate_p99,
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
