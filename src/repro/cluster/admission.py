"""Admission policies: what happens at the door when load exceeds room.

The serve layer's only policy used to be hard-coded: a bounded queue
that rejects at the door.  :class:`AdmissionPolicy` makes the decision
pluggable at two points of a request's life:

* :meth:`~AdmissionPolicy.at_door` — when the client submits: admit
  into the queue, or reject immediately;
* :meth:`~AdmissionPolicy.at_dispatch` — when the dispatcher finally
  picks the request up: serve it, or *shed* it (resolve the client's
  future with an error without doing the work — the queueing delay
  already made the answer worthless).

Three policies:

* :class:`RejectAtDoor` — the classic bounded queue (the previous
  behaviour, and the default);
* :class:`DeadlineShed` — admit freely while there is room, but shed
  any request that waited longer than its type's deadline: under a
  burst the queue drains at the cost of the stalest work, which is the
  right trade for *query* traffic whose answer goes stale anyway;
* :class:`PriorityAdmission` — per-request-type priorities: a type of
  priority ``p`` may only use the first ``(p+1)/(P+1)`` fraction of
  the queue, so background traffic (adjudication) is turned away while
  churn — the traffic that keeps the audit trail current — still has
  headroom.

Policies are picklable values.  :class:`AdmissionQueue` is the one
state machine that applies them — door check, bounded FIFO, adjacent-
churn coalescing, dispatch-time shedding, :class:`Completion` +
metrics, controller tick — hosted by both the asyncio serve layer and
the cluster coordinator.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional

from repro.cluster.requests import AdmissionError, ChurnRequest, Completion

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "DeadlineShed",
    "PriorityAdmission",
    "RejectAtDoor",
    "ShedError",
    "Ticket",
    "make_admission",
]


class ShedError(AdmissionError):
    """The request was admitted but shed before service (its deadline
    passed while it queued)."""


class AdmissionPolicy:
    """Strategy interface for the two admission decision points."""

    def at_door(self, kind: str, queued: int, depth: int) -> bool:
        """May a ``kind`` request enter a queue holding ``queued`` of
        ``depth``?  The queue's hard bound still applies on top."""
        raise NotImplementedError

    def at_door_request(self, request, queued: int, depth: int) -> bool:
        """The richer door hook both front-ends actually call: it sees
        the whole request, not just its kind.  The default delegates to
        :meth:`at_door`, so kind-only policies are unchanged; a policy
        that inspects request *content* (the ledger's trust-tiered
        variant boosting low-trust ASes' traffic) overrides this."""
        return self.at_door(request.kind, queued, depth)

    def at_dispatch(self, kind: str, waited: float) -> bool:
        """Serve a ``kind`` request that queued for ``waited`` seconds
        (``False`` = shed it)?"""
        return True

    def update(self, trust: Mapping[str, object]) -> None:
        """Adopt a settled trust snapshot (hosts with a ledger push one
        per epoch and after each slashing); only a trust-aware door
        keeps it."""

    def update_signals(
        self, *, severity: float, stale_after: Optional[float] = None
    ) -> None:
        """Adopt the controller's overload severity (pushed at every
        control tick); only a severity-driven policy keeps it."""

    def describe(self) -> Dict[str, object]:
        return {"policy": type(self).__name__}


@dataclass(frozen=True)
class RejectAtDoor(AdmissionPolicy):
    """The bounded queue: room or rejection, nothing in between."""

    def at_door(self, kind: str, queued: int, depth: int) -> bool:
        return queued < depth


@dataclass(frozen=True)
class DeadlineShed(AdmissionPolicy):
    """Admit while there is room; shed what queued past its deadline.

    ``deadline`` is the default per-type bound in seconds;
    ``deadlines`` overrides it per request kind (``None`` = that kind
    is never shed — churn usually should not be, since dropping it
    silently leaves the audit trail stale).
    """

    deadline: float = 0.25
    deadlines: Mapping[str, Optional[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        object.__setattr__(self, "deadlines", dict(self.deadlines))

    def at_door(self, kind: str, queued: int, depth: int) -> bool:
        return queued < depth

    def at_dispatch(self, kind: str, waited: float) -> bool:
        bound = self.deadlines.get(kind, self.deadline)
        return bound is None or waited <= bound

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["deadline_s"] = self.deadline
        return summary


@dataclass(frozen=True)
class PriorityAdmission(AdmissionPolicy):
    """Graduated door: priority ``p`` of ``P`` may fill ``(p+1)/(P+1)``
    of the queue.  Defaults favor churn over queries over adjudication."""

    priorities: Mapping[str, int] = field(default_factory=dict)

    DEFAULTS = {"adjudicate": 0, "query": 1, "churn": 2}

    def __post_init__(self) -> None:
        merged = dict(self.DEFAULTS)
        merged.update(self.priorities)
        if any(p < 0 for p in merged.values()):
            raise ValueError("priorities must be >= 0")
        object.__setattr__(self, "priorities", merged)

    def at_door(self, kind: str, queued: int, depth: int) -> bool:
        top = max(self.priorities.values(), default=0)
        priority = self.priorities.get(kind, top)
        allowed = depth * (priority + 1) / (top + 1)
        return queued < allowed

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["priorities"] = dict(self.priorities)
        return summary


def make_admission(spec: object) -> AdmissionPolicy:
    """Resolve an admission spec: an instance passes through; ``None``
    and ``"reject"`` build :class:`RejectAtDoor`; ``"deadline"`` or
    ``"deadline:0.5"`` build :class:`DeadlineShed`; ``"priority"``
    builds :class:`PriorityAdmission`; ``"trust"`` builds the ledger's
    :class:`~repro.ledger.feedback.TrustTieredAdmission` (imported
    lazily so the base admission plane has no ledger dependency)."""
    if isinstance(spec, AdmissionPolicy):
        return spec
    if spec is None or spec == "reject":
        return RejectAtDoor()
    if isinstance(spec, str):
        head, sep, arg = spec.partition(":")
        if head == "deadline":
            return DeadlineShed(float(arg)) if sep else DeadlineShed()
        if head == "priority":
            return PriorityAdmission()
        if head == "trust":
            from repro.ledger.feedback import TrustTieredAdmission

            return TrustTieredAdmission()
        if head == "adaptive":
            from repro.control.policies import AdaptiveAdmission

            if sep:
                return AdaptiveAdmission(stale_after=float(arg))
            return AdaptiveAdmission()
    raise ValueError(
        f"unknown admission policy {spec!r}; "
        f"expected reject, deadline[:SECONDS], priority, trust "
        f"or adaptive[:STALE_SECONDS]"
    )


@dataclass
class Ticket:
    """One admitted request's claim check: settled exactly once, with a
    :class:`Completion` or an error (then ``on_done`` fires)."""

    request: object
    enqueued: float
    net_delay: float = 0.0
    #: when the queue handed the request to its host (dispatch time)
    started: float = 0.0
    completion: Optional[Completion] = None
    error: Optional[BaseException] = None
    #: called with the settled ticket (the asyncio host resolves the
    #: client's future here)
    on_done: Optional[Callable[["Ticket"], None]] = None

    def result(self) -> Completion:
        if self.error is not None:
            raise self.error
        if self.completion is None:
            raise RuntimeError("ticket has not been served yet")
        return self.completion

    def _settle(self) -> None:
        if self.on_done is not None:
            self.on_done(self)


class AdmissionQueue:
    """The coordinator's admission plane: synchronous and lock-free —
    the queue is only touched from a door's one dispatching thread
    (``Cluster.pump()``'s caller, or the service's event loop).

    ``depth`` is the hard bound on queued requests; ``coalesce_max``
    caps how many adjacent churn requests ride one epoch sequence.
    A door loops ``next_group()`` → ``Cluster.serve_group()`` →
    ``resolve()`` / ``fail()``; ``serve_group`` calls ``control_tick()``
    (which reads no queue state) after each churn group.
    """

    def __init__(
        self,
        admission: AdmissionPolicy,
        metrics,
        *,
        depth: int,
        coalesce_max: int,
        controller=None,
    ) -> None:
        self.admission = admission
        self.metrics = metrics
        self.depth = depth
        self.coalesce_max = coalesce_max
        self.controller = controller
        self._pending: Deque[Ticket] = deque()

    def submit(
        self,
        request,
        net_delay: float = 0.0,
        on_done: Optional[Callable[[Ticket], None]] = None,
    ) -> Ticket:
        """Admit one request, or raise :class:`AdmissionError`."""
        kind = request.kind
        queued = len(self._pending)
        if queued >= self.depth or not self.admission.at_door_request(
            request, queued, self.depth
        ):
            self.metrics.reject(kind)
            raise AdmissionError(
                f"admission refused ({kind}, queue {queued}/{self.depth})"
            )
        ticket = Ticket(
            request=request,
            enqueued=time.perf_counter(),
            net_delay=net_delay,
            on_done=on_done,
        )
        self._pending.append(ticket)
        self.metrics.admit(kind)
        if self.controller is not None:
            self.controller.observe_queue_depth(
                len(self._pending), self.depth
            )
        return ticket

    def next_group(self) -> List[Ticket]:
        """Pop one unit of work in admission order: up to
        ``coalesce_max`` adjacent churn requests (they share one epoch
        sequence and one outcome), or a single read.  Tickets that
        queued past the policy's dispatch bound are shed on the way
        (settled with :class:`ShedError`, never applied); an empty list
        means the queue is drained."""
        pending = self._pending
        while pending:
            group = [pending.popleft()]
            if isinstance(group[0].request, ChurnRequest):
                while (
                    pending
                    and len(group) < self.coalesce_max
                    and isinstance(pending[0].request, ChurnRequest)
                ):
                    group.append(pending.popleft())
            now = time.perf_counter()
            live = []
            for ticket in group:
                kind = ticket.request.kind
                waited = now - ticket.enqueued
                if self.admission.at_dispatch(kind, waited):
                    ticket.started = now
                    live.append(ticket)
                else:
                    self.metrics.shed(kind)
                    ticket.error = ShedError(
                        f"{kind} request shed after {waited:.3f}s in queue"
                    )
                    ticket._settle()
            if live:
                return live
        return []

    def resolve(self, tickets: List[Ticket], payload) -> None:
        """Settle a served group with its (shared) payload."""
        finished = time.perf_counter()
        for ticket in tickets:
            completion = ticket.completion = Completion(
                request=ticket.request,
                payload=payload,
                enqueued=ticket.enqueued,
                started=ticket.started,
                finished=finished,
                net_delay=ticket.net_delay,
            )
            self.metrics.complete(
                ticket.request.kind,
                latency=completion.latency,
                queue_delay=completion.queue_delay,
                service=completion.service_time,
            )
            ticket._settle()

    def fail(self, tickets: List[Ticket], exc: BaseException) -> None:
        """Settle a group whose work raised: clients see the error."""
        for ticket in tickets:
            ticket.error = exc
            ticket._settle()

    def fail_pending(self, exc: BaseException) -> None:
        """Settle everything still queued with ``exc``: the door is
        stopping and will never dispatch it."""
        stranded = list(self._pending)
        self._pending.clear()
        self.fail(stranded, exc)

    def control_tick(self) -> None:
        """One controller evaluation after a served churn group: push
        the new severity into the admission policy."""
        if self.controller is None:
            return
        self.controller.tick()
        self.admission.update_signals(
            severity=self.controller.severity,
            stale_after=self.controller.policy.stale_after,
        )
