"""The ledger CLI: ``python -m repro.ledger``.

Usage::

    python -m repro.ledger
    python -m repro.ledger --rounds 12 --promote-after 2
    python -m repro.ledger --violate-every 4 --json ledger.json

Drives the ``serve-churn`` workload (:mod:`repro.cluster.workload`)
through its spec's ledger-enabled reference
:class:`~repro.audit.monitor.Monitor`: every epoch's
verdicts feed the :class:`~repro.ledger.ledger.TrustLedger`, ASes climb
the trust ladder on clean streaks, and (with ``--violate-every``) every
recorded violation goes to the judge at the end — the ledger folds its
rulings, and confirmed violations slash.  Prints the per-epoch cost
table, the final ladder and the hash-chain-verified transition history.

``--json PATH`` writes the schema-versioned ledger snapshot
(``schema: repro.ledger/snapshot``, ``schema_version: 2`` — the exact
:meth:`~repro.ledger.ledger.TrustLedger.snapshot` document, consistent
with the serve/cluster metrics documents) augmented with a ``run``
section of epoch/cost totals.  Exit status (the shared
:mod:`repro.util.cli` contract): 0 on success, 1 if the
transition-history hash chain fails to verify, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster import workload
from repro.obs import log as obs_log
from repro.util.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    add_common_arguments,
    usage_error,
    write_json,
)
from repro.util.tables import print_table

from repro.ledger.ledger import confirmed
from repro.ledger.levels import LedgerPolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ledger",
        description="Run churn under a ledger-enabled monitor and "
        "report the trust ladder and its transition history.",
    )
    parser.add_argument("--prefixes", type=int, default=4, metavar="N",
                        help="prefix count of the serving scenario "
                        "(default: 4)")
    parser.add_argument("--rounds", type=int, default=10, metavar="N",
                        help="churn rounds to script (default: 10)")
    parser.add_argument("--promote-after", type=int, default=2,
                        metavar="N",
                        help="consecutive clean covered epochs per "
                        "promotion rung (default: 2)")
    parser.add_argument("--violate-every", type=int, default=0,
                        metavar="N",
                        help="ride a Byzantine probe on every Nth churn "
                        "request (default: 0 = honest run)")
    add_common_arguments(
        parser,
        seed_help="keystore / nonce seed (default: 2011)",
        json_help="write the schema-versioned ledger snapshot here",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs_log.configure_logging(json_mode=args.log_json)
    if args.prefixes < 1 or args.rounds < 1:
        return usage_error("--prefixes and --rounds must be >= 1")
    if args.promote_after < 1:
        return usage_error("--promote-after must be >= 1")

    policy = LedgerPolicy(clean_epochs_to_promote=args.promote_after)
    spec, requests = workload.get(
        "serve-churn",
        prefixes=args.prefixes,
        rounds=args.rounds,
        violation_every=args.violate_every,
        key_bits=args.key_bits,
        rng_seed=args.seed,
        ledger=policy,
    )
    monitor = spec.build_monitor()
    ledger = monitor.ledger
    rows = []
    reports = []
    # one request at a time, so each row reads the ladder as it stood
    # when its epoch was planned (the trail is the same either way)
    for request in requests:
        for outcome in workload.drive_monitor(monitor, [request]):
            for report in outcome.reports:
                reports.append(report)
                rows.append((
                    report.epoch, len(report.events), report.verified,
                    report.reused, report.signatures,
                    ledger.trust_level("A").name,
                ))
    ledger.settle()

    print_table(
        "ledger-enabled audit epochs",
        ["epoch", "events", "verified", "reused", "signs",
         "A level at plan"],
        rows,
    )

    # every recorded violation goes to the judge; its rulings are the
    # only thing that slashes
    challenges = []
    violations = monitor.evidence.violations()
    if violations:
        rulings = monitor.evidence.adjudicate()
        demoted = {
            t.evidence_seqs[0] for t in ledger.fold_adjudications(rulings)
        }
        challenges = [
            {
                "seq": event.seq,
                "asn": event.asn,
                "confirmed": confirmed(rulings[event.seq]),
                "demoted": event.seq in demoted,
            }
            for event in violations
        ]
        print_table(
            "challenge desk",
            ["seq", "asn", "judge says", "demoted"],
            [(c["seq"], c["asn"],
              "CONFIRMED" if c["confirmed"] else "dismissed",
              "yes" if c["demoted"] else "no")
             for c in challenges],
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
    verified = ledger.history.verify()
    obs_log.emit(
        "ledger",
        f"history chain verified: {verified} "
        f"(head {ledger.history.head[:16]}…, "
        f"{len(ledger.history)} transitions)",
        verified=verified,
        transitions=len(ledger.history),
    )

    if args.json:
        document = ledger.snapshot()
        document["run"] = {
            "epochs": len(reports),
            "events": sum(len(r.events) for r in reports),
            "verified": sum(r.verified for r in reports),
            "reused": sum(r.reused for r in reports),
            "signatures": sum(r.signatures for r in reports),
            "challenges": challenges,
        }
        write_json(args.json, document, tag="ledger", what="snapshot")

    return EXIT_OK if verified else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
