"""The audit-plane CLI: ``python -m repro.audit``.

Usage::

    python -m repro.audit --list
    python -m repro.audit --scenario churn-fig1
    python -m repro.audit --scenario churn-64as --max-work 8 --adjudicate
    python -m repro.audit --scenario churn-steady --json audit.json

Drives a registered churn workload (:mod:`repro.cluster.workload`)
through its spec's unsharded :class:`~repro.audit.monitor.Monitor` with
the serial reference driver, printing one row per epoch (verified /
reused / deferred / crypto cost) and the evidence-store summary;
``--adjudicate`` runs the third-party judge over every stored
violation.  Exit status (the shared :mod:`repro.util.cli` contract):
0 on a violation-free run, 1 when violations were found, 2 on bad
usage.
"""

from __future__ import annotations

import argparse
import sys

from repro.audit.events import EpochOutcome
from repro.cluster import workload
from repro.obs import log as obs_log
from repro.util.cli import (
    EXIT_OK,
    add_common_arguments,
    envelope,
    fail,
    usage_error,
    write_json,
)
from repro.util.tables import print_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description="Run a churn scenario under the continuous audit "
        "monitor and report its epochs and evidence trail.",
    )
    parser.add_argument("--scenario", default="churn-fig1", metavar="NAME",
                        help="registered churn scenario (default: churn-fig1)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list registered churn scenarios and exit")
    parser.add_argument("--max-work", type=int, default=None, metavar="N",
                        help="bound fresh verifications per epoch")
    parser.add_argument("--adjudicate", action="store_true",
                        help="run the judge over every stored violation")
    add_common_arguments(
        parser,
        seed_help="keystore / nonce-stream seed (default: 2011)",
        json_help="write a machine-readable summary here",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs_log.configure_logging(json_mode=args.log_json)
    if args.list_scenarios:
        print_table("registered churn scenarios", ["name", "description"],
                    list(workload.names().items()))
        return 0

    if args.max_work is not None and args.max_work < 1:
        return usage_error(
            f"--max-work must be >= 1, got {args.max_work}"
        )
    try:
        spec, requests = workload.get(
            args.scenario,
            key_bits=args.key_bits,
            rng_seed=args.seed,
            max_work=args.max_work,
        )
    except KeyError as exc:
        return usage_error(exc.args[0])

    monitor = spec.build_monitor()
    # the whole run as one outcome: its accessors are the totals
    run = EpochOutcome(reports=[
        report
        for outcome in workload.drive_monitor(monitor, requests)
        for report in outcome.reports
    ])
    epochs = run.reports
    store = monitor.evidence
    violations = store.violations()
    events = len(run.events)
    summary = {
        "scenario": args.scenario,
        "epochs": len(epochs),
        "events": events,
        "verified": run.verified,
        "reused": run.reused,
        "reuse_ratio": run.reused / events if events else 0.0,
        "signatures": run.signatures,
        "verifications": run.verifications,
        "violations": len(violations),
        "pending": len(monitor.pending()),
    }

    print_table(
        f"audit epochs — {args.scenario}",
        ["epoch", "events", "verified", "reused", "deferred",
         "signs", "verifies", "wall ms"],
        [
            (e.epoch, len(e.events), e.verified, e.reused, len(e.deferred),
             e.signatures, e.verifications, f"{e.wall_seconds * 1000:.1f}")
            for e in epochs
        ],
    )

    print_table(
        "evidence store",
        ["events", "verified", "reused", "violations", "monitored ASes"],
        [(summary["events"], summary["verified"], summary["reused"],
          summary["violations"],
          ", ".join(sorted({e.asn for e in store.events()})))],
    )

    if violations and args.adjudicate:
        rows = []
        rulings = store.adjudicate()
        for event in violations:
            adjudication = rulings[event.seq]
            rows.append((
                event.seq, event.asn, str(event.prefix),
                ",".join(event.detecting_parties()) or "gossip",
                "GUILTY" if adjudication.guilty() else "complaints only",
            ))
        print_table(
            "judge adjudication",
            ["event", "AS", "prefix", "detected by", "ruling"],
            rows,
        )

    if args.json:
        # schema-versioned, so downstream tooling can detect
        # incompatible summary layouts
        write_json(
            args.json,
            envelope("repro.audit/summary", 1, summary),
            tag="audit", what="summary",
        )

    if violations:
        return fail(
            "audit",
            f"{len(violations)} violation event(s)",
        )
    obs_log.emit(
        "audit",
        f"{events} events across {len(epochs)} epochs; "
        f"reuse ratio {summary['reuse_ratio']:.0%}; violation-free",
        events=events,
        epochs=len(epochs),
        violations=0,
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
