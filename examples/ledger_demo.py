#!/usr/bin/env python3
"""The accountability ledger end to end: trust earned, spent, slashed.

The continuous-audit walkthroughs treat every AS the same forever.
This one closes the loop: a :class:`~repro.ledger.ledger.TrustLedger`
subscribes to the monitor's evidence store and turns verdict history
into a trust level per AS — ``QUARANTINED < PROBATIONARY < STANDARD <
TRUSTED`` — and the trust level feeds back into how hard the system
audits:

* **promotion is evidence-gated**: an AS climbs one rung only after N
  consecutive clean, sufficiently covered epochs, and the transition
  record cites the exact event seqs that earned it;
* **trust buys lighter verification**: once TRUSTED, the epoch planner
  samples the AS's tuples at rate r < 1 (deterministic seeded sampling
  — a reference monitor skips the same tuples), so the
  honest steady state costs measurably fewer signatures;
* **demotion is slashing, never drift**: a recorded violation *stops*
  promotion, but only a judge-confirmed adjudication — through the
  challenge desk — demotes, and the hash-chained history row cites the
  adjudicated evidence;
* the transition history is **append-only and tamper-evident**: every
  row's digest chains over the previous one, verified at the end.

Run:  python examples/ledger_demo.py
"""

from repro.cluster import workload
from repro.ledger import LedgerPolicy, TrustLevel
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import serve_prefixes

PREFIXES = 4
TRUSTED_RATE = 0.5


def main() -> None:
    policy = LedgerPolicy(
        clean_epochs_to_promote=2,
        sampling_rates={TrustLevel.TRUSTED: TRUSTED_RATE},
    )
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

    print("== 2. trust buys lighter verification ==")
    # ledger-free, same seed, same script
    twin = workload.serve_spec(PREFIXES).build_monitor()
    workload.drive_monitor(twin, requests)
    saved = twin.keystore.sign_count - monitor.keystore.sign_count
    print(
        f"  ledger-free twin signed {twin.keystore.sign_count}; "
        f"trust-sampled run signed {monitor.keystore.sign_count} "
        f"(saved {saved} signatures, "
        f"{monitor.intensity.sampled_out} tuples sampled out at "
        f"rate {TRUSTED_RATE})"
    )

    print("== 3. a violation alone never demotes ==")
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

    print("== 4. the challenge desk: adjudicated slashing ==")
    for outcome in ledger.challenge():
        verdict = "CONFIRMED" if outcome.confirmed else "dismissed"
        print(f"  seq {outcome.seq} ({outcome.asn}): judge says {verdict}")
        if outcome.transition is not None:
            t = outcome.transition
            print(
                f"  slashed: {t.from_level.name} -> {t.to_level.name} "
                f"citing adjudicated seqs "
                f"{','.join(str(s) for s in t.evidence_seqs)}"
            )
    print(f"  A now {ledger.trust_level('A').name}")

    print("== 5. the history is append-only and tamper-evident ==")
    for record in ledger.history.records():
        print(
            f"  #{record.index} {record.asn} "
            f"{record.from_level.name}->{record.to_level.name} "
            f"[{record.rule}] digest {record.digest[:12]}…"
        )
    print(f"  hash chain verified: {ledger.history.verify()}")


if __name__ == "__main__":
    main()
