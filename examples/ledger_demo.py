#!/usr/bin/env python3
"""The accountability ledger end to end: trust earned, then slashed.

A :class:`~repro.ledger.ledger.TrustLedger` subscribes to the monitor's
evidence store and turns verdict history into a trust level per AS —
``QUARANTINED < PROBATIONARY < STANDARD < TRUSTED``.  The ledger only
listens: every AS's tuples are verified the same way whatever its level.

* **promotion is evidence-gated**: an AS climbs one rung only after N
  consecutive clean, sufficiently covered epochs, and the transition
  record cites the exact event seqs that earned it;
* **demotion is slashing, never drift**: a recorded violation *stops*
  promotion, but only a judge-confirmed adjudication — the judge's
  rulings folded into the ledger — demotes, and the hash-chained
  history row cites the adjudicated evidence;
* the transition history is **append-only and tamper-evident**: every
  row's digest chains over the previous one, verified at the end.

Run:  python examples/ledger_demo.py
"""

from repro.cluster import workload
from repro.ledger import LedgerPolicy, confirmed
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import serve_prefixes

PREFIXES = 4


def main() -> None:
    policy = LedgerPolicy(clean_epochs_to_promote=2)
    spec, requests = workload.get(
        "serve-churn", prefixes=PREFIXES, rounds=8, ledger=policy
    )
    monitor = spec.build_monitor()
    ledger = monitor.ledger

    print("== 1. climbing the ladder on clean evidence ==")
    seen_transitions = 0
    for request in requests:
        workload.drive_monitor(monitor, [request])
        for record in ledger.history.records()[seen_transitions:]:
            print(
                f"  epoch {record.epoch}: {record.asn} "
                f"{record.from_level.name} -> {record.to_level.name} "
                f"({record.rule}, citing seqs "
                f"{','.join(str(s) for s in record.evidence_seqs)})"
            )
            seen_transitions += 1
    ledger.settle()
    level = ledger.trust_level("A")
    print(f"  A now stands at {level.name}")

    print("== 2. a violation alone never demotes ==")
    monitor.audit_once(
        "A", serve_prefixes(PREFIXES)[0], "B",
        prover=LongerRouteProver(monitor.keystore),
    )
    ledger.settle()
    print(
        f"  Byzantine probe recorded "
        f"{len(monitor.evidence.violations('A'))} violation(s) on file; "
        f"A is still {ledger.trust_level('A').name} "
        f"(streak reset, promotion frozen)"
    )

    print("== 3. the challenge desk: adjudicated slashing ==")
    rulings = monitor.evidence.adjudicate()
    slashes = {
        t.evidence_seqs[0]: t for t in ledger.fold_adjudications(rulings)
    }
    for event in monitor.evidence.violations():
        verdict = "CONFIRMED" if confirmed(rulings[event.seq]) else "dismissed"
        print(f"  seq {event.seq} ({event.asn}): judge says {verdict}")
        if event.seq in slashes:
            t = slashes[event.seq]
            print(
                f"  slashed: {t.from_level.name} -> {t.to_level.name} "
                f"citing adjudicated seqs "
                f"{','.join(str(s) for s in t.evidence_seqs)}"
            )
    print(f"  A now {ledger.trust_level('A').name}")

    print("== 4. the history is append-only and tamper-evident ==")
    for record in ledger.history.records():
        print(
            f"  #{record.index} {record.asn} "
            f"{record.from_level.name}->{record.to_level.name} "
            f"[{record.rule}] digest {record.digest[:12]}…"
        )
    print(f"  hash chain verified: {ledger.history.verify()}")


if __name__ == "__main__":
    main()
