"""Deterministic cluster workloads and the parity oracle.

:func:`churn_script` builds a reproducible request sequence over the
multi-prefix serving scenario — session flaps, restores, prefix
re-originations, optional Byzantine violation probes, and a final
resync sweep — with every churn step in the picklable ``(builder,
args)`` form, so the same script drives a process-transport
:class:`~repro.cluster.cluster.Cluster` and, via :func:`drive_monitor`,
the unsharded reference :class:`~repro.audit.monitor.Monitor`.
:func:`trail_mismatches` is the byte-parity oracle the CLI and the
tests gate on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.audit.monitor import Monitor
from repro.bgp.prefix import Prefix
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import (
    apply_step,
    bounce_session,
    flap_session,
    reoriginate,
    restore_session,
)

from repro.cluster.requests import AuditProbe, ChurnRequest

__all__ = ["churn_script", "drive_monitor", "trail_mismatches"]


def churn_script(
    prefixes: Sequence[Prefix],
    *,
    rounds: int = 8,
    violation_every: int = 0,
    violator: Tuple[str, str] = ("A", "B"),
    resync_after: bool = True,
) -> List[ChurnRequest]:
    """A deterministic churn request sequence over ``serve_network``.

    The cycle alternates a session flap, its restore, a prefix
    re-origination and a bounce — covering fresh verification, cache
    reuse and withdrawal-driven churn.  With ``violation_every`` > 0,
    every Nth request carries a :class:`~repro.cluster.requests.AuditProbe`
    riding a :class:`~repro.pvr.adversary.LongerRouteProver`.  The final
    request (with ``resync_after``) marks every (violator AS, prefix)
    pair — a full sweep that a warm cache serves with zero crypto.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    requests: List[ChurnRequest] = [ChurnRequest()]  # audit the converged state
    for index in range(rounds):
        phase = index % 4
        if phase == 0:
            steps: Tuple[object, ...] = ((flap_session, ("O", "N2")),)
        elif phase == 1:
            steps = ((restore_session, ("O", "N2")),)
        elif phase == 2:
            prefix = prefixes[index % len(prefixes)]
            steps = ((reoriginate, ("O", prefix)),)
        else:
            steps = ((bounce_session, ("X", "N1")),)
        probes: Tuple[AuditProbe, ...] = ()
        if violation_every and (index + 1) % violation_every == 0:
            asn, recipient = violator
            probes = (
                AuditProbe(
                    asn=asn,
                    prefix=prefixes[index % len(prefixes)],
                    recipient=recipient,
                    prover=LongerRouteProver,
                ),
            )
        requests.append(ChurnRequest(steps=steps, probes=probes))
    if resync_after:
        requests.append(
            ChurnRequest(
                marks=tuple((violator[0], p) for p in prefixes),
            )
        )
    return requests


def drive_monitor(
    monitor: Monitor,
    requests: Sequence[ChurnRequest],
    *,
    coalesce: int = 1,
) -> None:
    """Replay a churn script against an unsharded monitor, mirroring
    the cluster's request lifecycle exactly: steps, quiescence, epochs
    until the dirty queue drains, then the requests' probes in
    admission order.  ``coalesce`` groups that many adjacent requests
    into one burst — set it to the cluster's ``coalesce_max`` when the
    cluster served the script from a full queue, so the reference's
    epoch boundaries line up with the coalesced epochs."""
    if coalesce < 1:
        raise ValueError(f"coalesce must be >= 1, got {coalesce}")
    network = monitor.network
    queue = list(requests)
    while queue:
        group, queue = queue[:coalesce], queue[coalesce:]
        for request in group:
            for step in request.steps:
                apply_step(step, network)
            for asn, prefix in request.marks:
                monitor.mark(asn, prefix)
        network.run_to_quiescence()
        while monitor.pending():
            monitor.run_epoch()
        for request in group:
            for probe in request.probes:
                monitor.audit_once(
                    probe.asn,
                    probe.prefix,
                    probe.recipient,
                    prover=(
                        probe.prover(monitor.keystore)
                        if probe.prover is not None
                        else None
                    ),
                    max_length=probe.max_length,
                )


def trail_mismatches(
    cluster_store, reference_store, *, limit: Optional[int] = 10
) -> List[str]:
    """Byte-parity oracle: every way two evidence trails can differ.

    Compares the full event streams — sequence numbers, epochs, rounds,
    identities, verdict/evidence/complaint bytes, and crypto *and*
    transport cost counters.  Returns human-readable mismatch
    descriptions (empty = byte-identical), at most ``limit`` of them.
    """
    problems: List[str] = []

    def note(text: str) -> bool:
        problems.append(text)
        return limit is not None and len(problems) >= limit

    ours = cluster_store.events()
    theirs = reference_store.events()
    if len(ours) != len(theirs):
        note(f"event counts differ: {len(ours)} vs {len(theirs)}")
    for a, b in zip(ours, theirs):
        head = f"seq {a.seq}"
        for attribute in ("seq", "epoch", "round", "asn", "policy",
                          "reused", "spec", "routes"):
            if getattr(a, attribute) != getattr(b, attribute):
                if note(f"{head}: {attribute} differs"):
                    return problems
        if str(a.prefix) != str(b.prefix):
            if note(f"{head}: prefix differs"):
                return problems
        if a.report.verdicts != b.report.verdicts:
            if note(f"{head}: verdicts differ"):
                return problems
        if a.report.equivocations != b.report.equivocations:
            if note(f"{head}: equivocations differ"):
                return problems
        if a.report.all_evidence() != b.report.all_evidence():
            if note(f"{head}: evidence differs"):
                return problems
        if a.report.all_complaints() != b.report.all_complaints():
            if note(f"{head}: complaints differ"):
                return problems
        for counter in ("signatures", "verifications", "messages", "bytes"):
            if getattr(a.stats, counter) != getattr(b.stats, counter):
                if note(f"{head}: stats.{counter} differs"):
                    return problems
    return problems
