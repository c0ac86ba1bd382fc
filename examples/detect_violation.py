#!/usr/bin/env python3
"""The adversary gallery, on the audit plane: every Byzantine behaviour
caught in situ, its evidence trail flowing through the
:class:`~repro.audit.store.EvidenceStore`, adjudicated on demand (paper
Section 2.3's properties).

Each adversary class is injected into one monitored wire round on a
running BGP network (:meth:`repro.audit.monitor.Monitor.audit_once` —
the same path the continuous epochs use); the monitor records a
:class:`~repro.audit.events.VerdictEvent` for every round, the store's
``violations()`` query surfaces the detections, and the third-party
judge rules on the transferable evidence only when asked.  For the
withheld-message cases the script walks the interactive
complaint-resolution protocol, showing that an *honest* AS would have
been exonerated.

Run:  python examples/detect_violation.py
"""

from repro.audit import Monitor
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.pvr.adversary import (
    BadOpeningProver,
    EquivocatingProver,
    LongerRouteProver,
    LyingSuppressor,
    NoDisclosureProver,
    NonMonotoneProver,
    NoReceiptProver,
    SuppressingProver,
    UnderstatingProver,
)
from repro.pvr.judge import Judge
from repro.pvr.scenarios import figure1_network

PREFIX = Prefix.parse("192.0.2.0/24")


def main() -> None:
    # Figure 1 live: N2 hears the origin directly (2 hops at A), N1 and
    # N3 via X (3 hops at A); all three feed A, and A exports to B
    net = figure1_network(PREFIX)
    keystore = KeyStore(seed=2011, key_bits=1024)
    monitor = Monitor(keystore).attach(net)
    judge = Judge(keystore)
    adversaries = [
        ("honest prover", None),
        ("exports longer route", LongerRouteProver(keystore)),
        ("understates bit vector", UnderstatingProver(keystore)),
        ("suppresses export", SuppressingProver(keystore)),
        ("suppresses and lies", LyingSuppressor(keystore)),
        ("non-monotone commitments", NonMonotoneProver(keystore)),
        ("equivocates to neighbors", EquivocatingProver(keystore)),
        ("reveals garbage openings", BadOpeningProver(keystore)),
        ("withholds receipts", NoReceiptProver(keystore)),
        ("withholds disclosures", NoDisclosureProver(keystore)),
    ]

    labels = {}
    for label, prover in adversaries:
        event = monitor.audit_once("A", PREFIX, "B", prover=prover,
                                   max_length=8)
        labels[event.seq] = label
        print(f"\n--- {label} ---")
        if event.ok():
            print("  no violation detected (as expected)")
            continue
        detectors = list(event.detecting_parties())
        if event.report.equivocations:
            detectors.append("gossip")
        print(f"  detected by: {', '.join(detectors) or 'complaint only'}")
        for seq, adjudication in monitor.evidence.adjudicate(event).items():
            for evidence, valid in adjudication.evidence_rulings:
                verdict = "GUILTY" if valid else "INVALID"
                print(f"  evidence [{evidence.kind}] -> judge: {verdict}")
            for complaint, ruling in adjudication.complaint_rulings:
                # the guilty prover cannot answer; an honest one could
                print(
                    f"  complaint [{complaint.claim}] by {complaint.accuser}"
                    f" -> unanswered: {ruling.outcome}"
                )

    # The store is the queryable audit trail the rounds left behind.
    store = monitor.evidence
    print("\n--- the evidence trail, queried ---")
    print(f"  rounds recorded for A:  {len(store.by_asn('A'))}")
    print(f"  violations on file:     {len(store.violations())}")
    caught = ", ".join(labels[e.seq] for e in store.violations())
    print(f"  caught: {caught}")

    # Accuracy in action: a false complaint against an honest A collapses
    # once A produces the receipt.
    print("\n--- false accusation against an honest A ---")
    honest = monitor.audit_once("A", PREFIX, "B", max_length=8)
    from repro.pvr.evidence import Complaint

    smear = Complaint(accuser="N1", accused="A", round=honest.round,
                      claim="missing-receipt")
    # the trail keeps receipts; the replay re-derives what A sent N1
    response = monitor.replay(honest).transcript.views["N1"].receipt
    ruling = judge.resolve_complaint(smear, response)
    print(f"  N1 claims its receipt was withheld; A produces it -> "
          f"{ruling.outcome}")


if __name__ == "__main__":
    main()
