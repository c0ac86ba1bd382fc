"""The audit plane's output vocabulary: verdict events and epoch reports.

A :class:`VerdictEvent` is one audited (AS, prefix, policy, recipients)
tuple in one epoch — either freshly verified (``reused=False``, with a
full wire round behind it) or served from the incremental cache
(``reused=True``, zero crypto operations, same report object and wire
digest as the verification it reuses).  An :class:`EpochReport`
aggregates one epoch: what ran, what was reused, what was deferred by
the work bound.

:class:`EpochOutcome` is the **unified epoch-driving result**: the one
shape :meth:`~repro.audit.monitor.Monitor.run_epoch` and the cluster
coordinator (:class:`~repro.cluster.cluster.Cluster`, behind either
door) return.  It aggregates one *driving step* — one or more epoch reports
(a work bound or a coalesced churn group can span several), the
out-of-epoch probe events that rode along, per-worker
:class:`SliceStats`, and the pool's respawn count — while forwarding
every :class:`EpochReport` accessor, so code written against the old
single-report shape keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bgp.prefix import Prefix
from repro.pvr.session import PromiseSpec, SessionReport

from repro.audit.wire import RoundStats


@dataclass(frozen=True)
class VerdictEvent:
    """One audited tuple's outcome, as emitted on the monitor's stream.

    ``routes`` is the exact Adj-RIB-In slice the session verified (the
    replay inputs); ``report`` is a receipt — the session report
    without its transcript (:meth:`~repro.audit.monitor.Monitor.replay`
    re-derives it); ``stats`` the wire-round cost accounting (zeroed for
    reused events) and the digest of what the round sent.
    ``epoch`` is ``None`` for out-of-epoch audits
    (:meth:`~repro.audit.monitor.Monitor.audit_once`).
    """

    seq: int
    epoch: Optional[int]
    asn: str
    prefix: Optional[Prefix]
    policy: str
    spec: PromiseSpec
    round: int
    routes: Dict[str, object]
    report: SessionReport
    stats: RoundStats
    reused: bool = False

    @property
    def recipients(self) -> Tuple[str, ...]:
        return self.spec.recipients

    def ok(self) -> bool:
        return not self.violation_found()

    def violation_found(self) -> bool:
        return self.report.violation_found()

    def detecting_parties(self) -> Tuple[str, ...]:
        return self.report.detecting_parties()


@dataclass
class EpochReport:
    """What one verification epoch did.

    ``verified`` events ran a full wire round; ``reused`` events were
    served from the incremental cache; ``deferred`` (AS, prefix) pairs
    exceeded the epoch's work bound and stay queued for the next epoch.
    """

    epoch: int
    events: List[VerdictEvent] = field(default_factory=list)
    deferred: List[Tuple[str, Prefix]] = field(default_factory=list)
    signatures: int = 0
    verifications: int = 0
    wall_seconds: float = 0.0

    @property
    def verified(self) -> int:
        return sum(1 for e in self.events if not e.reused)

    @property
    def reused(self) -> int:
        return sum(1 for e in self.events if e.reused)

    def violations(self) -> Tuple[VerdictEvent, ...]:
        return tuple(e for e in self.events if e.violation_found())

    def violation_free(self) -> bool:
        return not self.violations()


def reused_event(
    previous: VerdictEvent, *, seq: int, epoch: int
) -> VerdictEvent:
    """Build the cache-served re-emission of ``previous`` for ``epoch``:
    same report, same round and wire digest, zero crypto operations."""
    return VerdictEvent(
        seq=seq,
        epoch=epoch,
        asn=previous.asn,
        prefix=previous.prefix,
        policy=previous.policy,
        spec=previous.spec,
        round=previous.round,
        routes=dict(previous.routes),
        report=previous.report,
        stats=RoundStats(
            prover=previous.spec.prover,
            recipient=previous.spec.recipient,
            providers=previous.spec.providers,
            recipients=previous.spec.recipients,
            violations=previous.stats.violations,
            equivocations=previous.stats.equivocations,
            reused=True,
            wire_digest=previous.stats.wire_digest,
        ),
        reused=True,
    )


@dataclass
class SliceStats:
    """One worker's (or shard's) share of one epoch's execution."""

    worker: int
    epoch: int
    #: fresh rounds this worker ran (a worker never sees a reused one)
    events: int
    #: rounds this worker re-ran on behalf of a dead worker
    backfilled: int = 0
    wall_seconds: float = 0.0


@dataclass
class EpochOutcome:
    """What one epoch-driving step produced, across every layer.

    ``reports`` are the epochs the step ran (a work bound or a coalesced
    churn group can span several); ``probe_events`` the out-of-epoch
    audits that rode along; ``slices`` the per-worker/shard execution
    stats; ``respawns`` how many dead workers the pool replaced while
    serving the step; ``coalesced`` how many churn requests shared it.

    Every :class:`EpochReport` accessor is forwarded (``events``,
    ``verified``, ``reused``, ``deferred``, ``signatures``,
    ``verifications``, ``wall_seconds``, ``violations()``,
    ``violation_free()``), so a single-epoch outcome reads exactly like
    the report it wraps.
    """

    reports: List[EpochReport] = field(default_factory=list)
    probe_events: List[VerdictEvent] = field(default_factory=list)
    slices: List[SliceStats] = field(default_factory=list)
    respawns: int = 0
    coalesced: int = 1

    # -- canonical accessors (EpochReport-compatible) ------------------------

    @property
    def epoch(self) -> Optional[int]:
        """The first epoch id this outcome covers (``None`` if empty)."""
        return self.reports[0].epoch if self.reports else None

    @property
    def epochs(self) -> Tuple[int, ...]:
        return tuple(r.epoch for r in self.reports)

    @property
    def events(self) -> List[VerdictEvent]:
        """Every epoch event, in plan order across the reports (probe
        events are separate — see :attr:`probe_events`)."""
        return [e for r in self.reports for e in r.events]

    @property
    def verified(self) -> int:
        return sum(r.verified for r in self.reports)

    @property
    def reused(self) -> int:
        return sum(r.reused for r in self.reports)

    @property
    def deferred(self) -> List[Tuple[str, Prefix]]:
        """The final report's deferred pairs — what is still queued
        after this driving step (earlier reports' deferrals were
        consumed by later ones)."""
        return list(self.reports[-1].deferred) if self.reports else []

    @property
    def signatures(self) -> int:
        return sum(r.signatures for r in self.reports)

    @property
    def verifications(self) -> int:
        return sum(r.verifications for r in self.reports)

    @property
    def messages(self) -> int:
        """Transport messages across every epoch event's round stats."""
        return sum(e.stats.messages for e in self.events)

    @property
    def bytes(self) -> int:
        """Transport bytes across every epoch event's round stats."""
        return sum(e.stats.bytes for e in self.events)

    @property
    def wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.reports)

    def violations(self) -> Tuple[VerdictEvent, ...]:
        """Every violating event — epoch events and probe events."""
        return tuple(
            e
            for e in (*self.events, *self.probe_events)
            if e.violation_found()
        )

    def violation_free(self) -> bool:
        return not self.violations()

    @classmethod
    def single(cls, report: EpochReport) -> "EpochOutcome":
        """Wrap one serial epoch report (the Monitor path)."""
        return cls(reports=[report])
