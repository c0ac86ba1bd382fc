"""The serving request vocabulary, shared by every front-end.

One set of request types serves both front-ends — the asyncio
:class:`~repro.serve.service.VerificationService` and the synchronous,
journaled :class:`~repro.cluster.cluster.Cluster` — so a workload
schedule built once (:mod:`repro.serve.loadgen`) drives either.

**Reads do not wait for writes.**  A :class:`QueryRequest` is answered
at admission, from the trail as of the last *committed* write group —
it never queues behind churn or adjudication admitted ahead of it, and
it never sees a half-folded epoch.  Read-your-writes holds for a client
that awaits its write first: both doors complete a write only after its
group has committed.  :class:`ChurnRequest` and
:class:`AdjudicateRequest` are the writes: they queue, in admission
order, in the coordinator's one bounded FIFO.

Churn *steps* may be live callables (``step(network)``) or picklable
``(builder, args)`` pairs resolved through
:func:`repro.pvr.scenarios.apply_step` — the pair form can be written
to the coordinator's journal, the callable form cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore

__all__ = [
    "AdjudicateRequest",
    "AdmissionError",
    "AuditProbe",
    "ChurnRequest",
    "Completion",
    "QueryRequest",
    "ServiceStopped",
    "ShedError",
    "answer_query",
    "answer_adjudicate",
]


class AdmissionError(RuntimeError):
    """A write was refused at the door: the queue is at depth.  (A
    read is never refused — it does not queue.)"""


class ShedError(AdmissionError):
    """Never raised: nothing is shed once admitted.  The name survives
    only because the frozen ``benchmarks/e2e`` imports it from
    ``repro.cluster`` (ROADMAP item B(b) removes it there, then here)."""


class ServiceStopped(RuntimeError):
    """The request was admitted, but its door stopped without draining
    before it was dispatched; it was never applied."""


@dataclass(frozen=True)
class AuditProbe:
    """One out-of-epoch audit ridden on a churn request.

    ``prover`` (a ``keystore -> prover`` factory, e.g. ``LongerRouteProver``)
    injects a Byzantine prover — the load generator's violation
    injection.  Probes always run on a real wire path, the monitor's
    own network: Byzantine deviations are live behaviours that must see
    real transport.
    """

    asn: str
    prefix: Prefix
    recipient: str
    prover: Optional[Callable[[KeyStore], object]] = None
    max_length: int = 8


@dataclass(frozen=True)
class ChurnRequest:
    """Apply BGP churn and audit what changed.

    ``steps`` are network mutations — live callables or picklable
    ``(builder, args)`` pairs (the churn-step builders of
    :mod:`repro.pvr.scenarios`); ``marks`` are explicit (AS, prefix)
    pairs to re-audit without any mutation (a resync nudge);
    ``probes`` are out-of-epoch :class:`AuditProbe` rounds run after
    the epoch work.
    """

    steps: Tuple[object, ...] = ()
    marks: Tuple[Tuple[str, Prefix], ...] = ()
    probes: Tuple[AuditProbe, ...] = ()

    @property
    def kind(self) -> str:
        return "churn"


@dataclass(frozen=True)
class QueryRequest:
    """Read the evidence trail: ``what``, scoped by the optional args.
    Answered at the door, as of the last committed write group."""

    what: str = "summary"  # summary | violations | events | evidence
    asn: Optional[str] = None
    prefix: Optional[Prefix] = None
    policy: Optional[str] = None

    @property
    def kind(self) -> str:
        return "query"


@dataclass(frozen=True)
class AdjudicateRequest:
    """Run the judge: one event by ``seq``, or every stored violation."""

    seq: Optional[int] = None

    @property
    def kind(self) -> str:
        return "adjudicate"


@dataclass
class Completion:
    """What a resolved request carries back to its client."""

    request: object
    payload: object
    enqueued: float
    started: float = 0.0
    finished: float = 0.0

    @property
    def latency(self) -> float:
        """Latency at the door: queue delay + service time."""
        return self.finished - self.enqueued

    @property
    def queue_delay(self) -> float:
        return self.started - self.enqueued

    @property
    def service_time(self) -> float:
        return self.finished - self.started


def answer_query(store, request: QueryRequest):
    """Resolve one :class:`QueryRequest` against an evidence store —
    the single definition both front-ends serve reads through."""
    if request.what == "summary":
        return store.summary()
    if request.what == "violations":
        return store.violations()
    if request.what == "evidence":
        return store.evidence()
    if request.what == "events":
        events = store.events()
        if request.asn is not None:
            events = tuple(e for e in events if e.asn == request.asn)
        if request.prefix is not None:
            events = tuple(e for e in events if e.prefix == request.prefix)
        if request.policy is not None:
            events = tuple(e for e in events if e.policy == request.policy)
        return events
    raise ValueError(f"unknown query {request.what!r}")


def answer_adjudicate(store, request: AdjudicateRequest) -> Dict[int, object]:
    """Resolve one :class:`AdjudicateRequest` against an evidence store."""
    if request.seq is None:
        return store.adjudicate()
    for event in store.events():
        if event.seq == request.seq:
            return store.adjudicate(event)
    raise KeyError(f"no stored event with seq {request.seq}")
