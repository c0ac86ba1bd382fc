"""The serving-layer CLI: ``python -m repro.serve``.

Usage::

    python -m repro.serve --shards 4 --requests 200
    python -m repro.serve --shards 2 --duration 10 --rate 40 \\
        --violations 10 --json serve-metrics.json
    python -m repro.serve --simnet-latency 0.05 --drop-rate 0.1
    python -m repro.serve --ramp 4,16,64 --ramp-requests 24 \\
        --controller --gate-p99 0.1 --json overload.json

Builds the multi-prefix serving scenario
(:func:`repro.pvr.scenarios.serve_network`), starts a
:class:`~repro.serve.service.VerificationService` with the requested
shard count, and drives the open-loop load generator against it —
optionally through a :class:`~repro.serve.loadgen.SimnetGateway` so
link latency and drops perturb admission.  Prints per-request-type
latency percentiles and the epoch/shard/parity counters; ``--json``
writes the schema-versioned metrics snapshot.

``--ramp R1,R2,...`` switches to the open-loop **overload ramp**:
each rate runs for ``--ramp-requests`` arrivals with no drain between
stages, and the per-stage query-p99 curve is printed (and embedded in
the ``--json`` snapshot under ``"ramp"``).  ``--controller`` closes
the loop: the :mod:`repro.control` plane reads the epoch/queue
signals, drives an :class:`~repro.control.policies.AdaptiveAdmission`
policy (sheds queries — never churn or adjudication — when the
pipeline falls behind ``--latency-bound``), and its decision log rides
the snapshot.  ``--gate-p99 S`` turns the final ramp stage's
completed-query p99 into an exit gate.

Exit status (the shared :mod:`repro.util.cli` contract): 0 on success,
1 when any verdict-parity self-check failed (or request futures
errored, or the ``--gate-p99`` bound was exceeded), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.bench.tables import print_table
from repro.cluster.metrics import REQUEST_COLUMNS, request_rows
from repro.obs import log as obs_log
from repro.promises.spec import ShortestRoute
from repro.util.cli import (
    EXIT_OK,
    add_common_arguments,
    emit_decisions,
    fail,
    usage_error,
    write_json,
)

from repro.serve.loadgen import (
    LoadProfile,
    RampReport,
    ServeWorkload,
    SimnetGateway,
    build_schedule,
    ramp_schedule,
    run_open_loop,
    run_ramp,
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
    parser.add_argument("--admission", default="reject", metavar="SPEC",
                        help='admission policy: "reject", "deadline[:S]", '
                        '"priority", "trust" or "adaptive[:S]" '
                        '(default: reject; --controller implies adaptive)')
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
                        help="admission queue bound (default: 64)")
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
    parser.add_argument("--simnet-latency", type=float, default=None,
                        metavar="S", help="route requests over a simnet "
                        "link with this latency")
    parser.add_argument("--drop-rate", type=float, default=0.0, metavar="P",
                        help="simnet gateway drop probability "
                        "(implies a gateway)")
    parser.add_argument("--parity-sample", type=int, default=4, metavar="K",
                        help="re-prove every Kth fresh verdict as a "
                        "parity self-check; 0 disables (default: 4)")
    parser.add_argument("--ramp", default=None, metavar="R1,R2,...",
                        help="overload ramp: comma-separated open-loop "
                        "stage rates (rps), no drain between stages")
    parser.add_argument("--ramp-requests", type=int, default=16,
                        metavar="N", help="requests per ramp stage "
                        "(default: 16)")
    parser.add_argument("--controller", action="store_true",
                        help="enable the repro.control plane: adaptive "
                        "admission driven by epoch/queue signals")
    parser.add_argument("--latency-bound", type=float, default=0.05,
                        metavar="S", help="controller epoch-wall bound "
                        "before shedding starts (default: 0.05)")
    parser.add_argument("--stale-after", type=float, default=0.1,
                        metavar="S", help="controller: shed queries "
                        "queued longer than this under load "
                        "(default: 0.1)")
    parser.add_argument("--gate-p99", type=float, default=None,
                        metavar="S", help="exit 1 if the final ramp "
                        "stage's completed-query p99 exceeds this")
    add_common_arguments(
        parser,
        json_help="write the metrics snapshot here",
    )
    return parser


async def serve_and_load(args) -> tuple:
    from repro.pvr.scenarios import serve_network

    admission = args.admission
    control_policy = None
    if args.controller:
        from repro.control.controller import ControlPolicy
        from repro.control.policies import AdaptiveAdmission

        if admission == "reject":
            admission = AdaptiveAdmission(
                seed=args.seed, stale_after=args.stale_after
            )
        control_policy = ControlPolicy(
            window=12,
            latency_bound=args.latency_bound,
            stale_after=args.stale_after,
            queue_high=0.125,
        )

    network, prefixes = serve_network(args.prefixes)
    service = VerificationService(
        network,
        shards=args.shards,
        admission=admission,
        key_bits=args.key_bits,
        rng_seed=args.seed,
        queue_depth=args.queue_depth,
        batch_max=args.batch_max,
        max_events=args.max_events,
        parity_sample=args.parity_sample,
        controller=control_policy,
    )
    service.policy("A", ShortestRoute(), recipients=("B",), max_length=8)

    if args.ramp is not None:
        rates = tuple(float(r) for r in args.ramp.split(","))
        workload = ServeWorkload(
            prefixes=prefixes,
            flappable=(("O", "N2"), ("X", "N1")),
            violator=("A", "B") if args.violations else None,
        )
        schedule = ramp_schedule(
            workload,
            rates=rates,
            per_stage=args.ramp_requests,
            seed=args.seed,
            zipf_s=args.zipf,
            violation_every=args.violations,
        )
        await service.start()
        try:
            report = await run_ramp(service, schedule, rates=rates)
        finally:
            await service.stop()
        return service, report

    requests = args.requests
    if requests is None:
        if args.duration is not None and args.rate is not None:
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
        prefixes=prefixes,
        flappable=(("O", "N2"), ("X", "N1")),
        violator=("A", "B") if args.violations else None,
    )
    gateway = None
    if args.simnet_latency is not None or args.drop_rate > 0:
        gateway = SimnetGateway(
            latency=(
                args.simnet_latency
                if args.simnet_latency is not None
                else 0.02
            ),
            drop_rate=args.drop_rate,
            seed=args.seed,
        )

    await service.start()
    try:
        schedule = build_schedule(profile, workload)
        report = await run_open_loop(service, schedule, gateway=gateway)
    finally:
        await service.stop()
    return service, report


def finish_ramp(args, service, report, snapshot) -> int:
    """Report an overload-ramp drive and apply the exit gates."""
    curve = report.curve()
    print_table(
        f"overload ramp — {args.shards} shard(s), controller "
        f"{'on' if args.controller else 'off'}",
        ["stage", "rate", "offered", "rejected", "shed", "completed",
         "query p99 ms"],
        [
            (record["stage"], record["rate"], record["offered"],
             record["rejected"], record["shed"], record["completed"],
             "all shed" if record["query_p99_s"] is None
             else f"{record['query_p99_s'] * 1000:.1f}")
            for record in curve
        ],
    )
    emit_decisions(snapshot["control"])

    snapshot = dict(snapshot)
    snapshot["ramp"] = curve
    if args.json:
        write_json(args.json, snapshot, tag="serve")

    parity = snapshot["parity"]
    errors = sum(stage.errors for stage in report.stages)
    obs_log.emit(
        "serve",
        f"ramp {args.ramp}: {report.offered} offered, "
        f"{report.rejected} rejected at the door, {report.shed} shed, "
        f"{errors} errored; parity checks: {parity['checked']} run, "
        f"{parity['failed']} failed",
        offered=report.offered,
        rejected=report.rejected,
        shed=report.shed,
        errors=errors,
    )
    if errors:
        return fail("serve", f"{errors} request(s) errored during the ramp")
    if parity["failed"]:
        return fail(
            "serve",
            f"{parity['failed']} verdict-parity check(s) failed",
        )
    if args.gate_p99 is not None:
        final = curve[-1]["query_p99_s"]
        if final is not None and final > args.gate_p99:
            return fail(
                "serve",
                f"final-stage query p99 {final:.3f}s exceeds the "
                f"--gate-p99 bound {args.gate_p99:.3f}s",
            )
        bound = "all queries shed" if final is None else f"{final:.3f}s"
        obs_log.emit(
            "serve",
            f"gate-p99 ok: final-stage query p99 {bound} "
            f"<= {args.gate_p99:.3f}s",
            gate_p99=args.gate_p99,
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs_log.configure_logging(json_mode=args.log_json)
    if args.shards < 1:
        return usage_error(f"--shards must be >= 1, got {args.shards}")
    if args.prefixes < 1:
        return usage_error(
            f"--prefixes must be >= 1, got {args.prefixes}"
        )
    if args.ramp is not None:
        try:
            rates = [float(r) for r in args.ramp.split(",")]
        except ValueError:
            return usage_error(f"--ramp must be R1,R2,..., got {args.ramp!r}")
        if not rates or any(r <= 0 for r in rates):
            return usage_error("--ramp rates must all be positive")
        if args.ramp_requests < 1:
            return usage_error(
                f"--ramp-requests must be >= 1, got {args.ramp_requests}"
            )
        if args.simnet_latency is not None or args.drop_rate > 0:
            return usage_error("--ramp does not take a simnet gateway")
    elif args.gate_p99 is not None:
        return usage_error("--gate-p99 requires --ramp")

    service, report = asyncio.run(serve_and_load(args))
    snapshot = service.metrics.snapshot()
    if isinstance(report, RampReport):
        return finish_ramp(args, service, report, snapshot)

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
        f"({report.rejected} rejected, {report.dropped} dropped in "
        f"transit); parity checks: {parity['checked']} run, "
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
