"""The admission plane: a bounded queue of writes, reads answered at
the door.

:class:`AdmissionQueue` is the one state machine both doors submit
into — the asyncio serve layer and the cluster coordinator's own
``pump()``:

* a **write** (churn, adjudication) enters a bounded FIFO or is refused
  at the door — the one admission rule is ``len(pending) < depth``.
  Adjacent queued churn requests coalesce (up to ``coalesce_max``) into
  one epoch sequence and share one outcome;
* a **read** (:class:`~repro.cluster.requests.QueryRequest`) never
  queues.  The trail is append-only, so ``submit`` answers it on the
  spot from the evidence store's committed view — the trail as of the
  last committed write group — and returns a ticket that is already
  settled.  It is never refused for queue room, takes none, and never
  sits between two churn requests that could have coalesced.

Every request, read or write, gets a :class:`Ticket`, a
:class:`~repro.cluster.requests.Completion` and its admit/complete
metrics row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.obs.trace import CLOCK

from repro.cluster.requests import (
    AdmissionError,
    ChurnRequest,
    Completion,
    QueryRequest,
    answer_query,
)

__all__ = ["AdmissionQueue", "Ticket"]


@dataclass
class Ticket:
    """One admitted request's claim check: settled exactly once, with a
    :class:`Completion` or an error (then ``on_done`` fires)."""

    request: object
    enqueued: float
    #: when the queue handed the request to its host (dispatch time;
    #: a read's is its admission time — it never waits)
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
    """The coordinator's admission plane.  The FIFO is lock-free — only
    a door's one submitting/dispatching thread (``Cluster.pump()``'s
    caller, or the service's event loop) touches it; reads go to
    ``store.committed_view()``, which is safe beside the thread serving
    a write group.

    ``depth`` is the hard bound on queued writes; ``coalesce_max`` caps
    how many adjacent churn requests ride one epoch sequence.  A door
    loops ``next_group()`` → ``Cluster.serve_group()`` → ``resolve()``
    / ``fail()``.
    """

    def __init__(
        self, metrics, store, *, depth: int, coalesce_max: int
    ) -> None:
        self.metrics = metrics
        self.store = store
        self.depth = depth
        self.coalesce_max = coalesce_max
        self._pending: Deque[Ticket] = deque()

    def submit(
        self,
        request,
        on_done: Optional[Callable[[Ticket], None]] = None,
    ) -> Ticket:
        """Admit one request.  A read comes back settled; a write is
        queued, or refused with :class:`AdmissionError` when the queue
        is at depth."""
        kind = request.kind
        now = CLOCK()
        ticket = Ticket(request=request, enqueued=now, on_done=on_done)
        if isinstance(request, QueryRequest):
            self.metrics.admit(kind)
            ticket.started = now
            try:
                payload = answer_query(self.store.committed_view(), request)
            except Exception as exc:  # a malformed query: the client's
                self.fail([ticket], exc)
            else:
                self.resolve([ticket], payload)
            return ticket
        if len(self._pending) < self.depth:
            self._pending.append(ticket)
            self.metrics.admit(kind)
            return ticket
        self.metrics.reject(kind)
        raise AdmissionError(
            f"admission refused ({kind}, queue at depth {self.depth})"
        )

    def next_group(self) -> List[Ticket]:
        """Pop one unit of work in admission order: up to
        ``coalesce_max`` adjacent churn requests (they share one epoch
        sequence and one outcome), or a single adjudication.  An empty
        list means the queue is drained."""
        pending = self._pending
        if not pending:
            return []
        group = [pending.popleft()]
        if isinstance(group[0].request, ChurnRequest):
            while (
                pending
                and len(group) < self.coalesce_max
                and isinstance(pending[0].request, ChurnRequest)
            ):
                group.append(pending.popleft())
        now = CLOCK()
        for ticket in group:
            ticket.started = now
        return group

    def resolve(self, tickets: List[Ticket], payload) -> None:
        """Settle a served group with its (shared) payload."""
        finished = CLOCK()
        for ticket in tickets:
            completion = ticket.completion = Completion(
                request=ticket.request,
                payload=payload,
                enqueued=ticket.enqueued,
                started=ticket.started,
                finished=finished,
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
