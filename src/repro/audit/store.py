"""The evidence store: the audit plane's queryable trail.

Every :class:`~repro.audit.events.VerdictEvent` the monitor emits is
recorded here.  The store answers the operator questions a continuous
audit plane exists for — *what happened at AS X*, *who touched this
prefix*, *show me every violation* — and runs the paper's third-party
judge over any slice of the trail on demand (adjudication is lazy: the
judge's RSA work is only spent when an operator actually disputes
something).

The trail is append-only, which is why it can be read while it is
written: a serving door answers reads from :meth:`EvidenceStore.committed_view`
— a copy of the trail cut at the last :meth:`EvidenceStore.commit` —
on its own thread while an epoch appends on another.  The copy and
every mutation take the store's lock; the scans below it do not, so
only the committed view is safe beside an appending thread.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.pvr.evidence import Evidence
from repro.pvr.judge import Judge
from repro.pvr.session import Adjudication

from repro.audit.events import VerdictEvent


class EvidenceStore:
    """Append-only store of verdict events with query and adjudication.

    ``max_events`` bounds memory under sustained churn: when the trail
    exceeds the bound, the *oldest clean* verdicts are evicted first and
    violations are pinned — an operator can always adjudicate every
    recorded violation, however long the service has been up.  (A store
    holding more than ``max_events`` pinned violations exceeds the bound
    rather than discard evidence.)  ``evicted`` counts what was dropped.
    """

    def __init__(
        self,
        keystore: Optional[KeyStore] = None,
        *,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.keystore = keystore
        self.max_events = max_events
        self.evicted = 0
        # two segments, both in recording order: ``_pinned`` holds
        # violations that sank past the eviction horizon (kept forever),
        # ``_tail`` everything newer.  Eviction pops from the tail's
        # left, so each event is examined at most once — amortized O(1)
        # per record, however long the service runs
        self._pinned: List[VerdictEvent] = []
        self._tail: deque = deque()
        self._subscribers: List[Callable[[VerdictEvent], None]] = []
        self._evict_subscribers: List[Callable[[VerdictEvent], None]] = []
        self._seq = 0
        #: seq of the last event a door's readers may see (``commit``)
        self._committed = 0
        # guards ``_pinned`` / ``_tail`` between the one recording
        # thread and ``committed_view`` callers
        self._lock = threading.Lock()

    # -- ingestion -----------------------------------------------------------

    def next_seq(self) -> int:
        """A store-unique event sequence number.  Allocated here rather
        than per monitor, so several monitors sharing one store (the
        ``store=`` constructor parameter) never emit colliding seqs."""
        self._seq += 1
        return self._seq

    def record(self, event: VerdictEvent) -> VerdictEvent:
        with self._lock:
            self._tail.append(event)
            evicted = self._evict_overflow()
        # callbacks run outside the lock: they may read the store
        for gone in evicted:
            for subscriber in self._evict_subscribers:
                subscriber(gone)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def _evict_overflow(self) -> Sequence[VerdictEvent]:
        """Enforce ``max_events`` (caller holds the lock); returns what
        was dropped, oldest first."""
        if self.max_events is None:
            return ()
        evicted: List[VerdictEvent] = []
        while len(self) > self.max_events and self._tail:
            oldest = self._tail.popleft()
            if oldest.violation_found():
                # pinned: sinks below the eviction horizon for good
                self._pinned.append(oldest)
                continue
            self.evicted += 1
            evicted.append(oldest)
        return evicted

    def _all(self) -> Iterator[VerdictEvent]:
        return chain(self._pinned, self._tail)

    def counters(self) -> Dict[str, int]:
        """The store's state without its events: the pinned/tail split
        point, the eviction tally and the seq allocator."""
        return {
            "pinned": len(self._pinned),
            "evicted": self.evicted,
            "seq": self._seq,
        }

    def since(self, seq: int) -> Tuple[VerdictEvent, ...]:
        """The events recorded after ``seq``, in recording order — read
        from the trail's newer end, so it costs what it returns."""
        newer: List[VerdictEvent] = []
        for event in chain(reversed(self._tail), reversed(self._pinned)):
            if event.seq <= seq:
                break
            newer.append(event)
        return tuple(reversed(newer))

    def checkpoint_state(self) -> Dict[str, object]:
        """A picklable capture of the full store state (events in
        recording order plus :meth:`counters`) for :meth:`restore`."""
        return {"events": tuple(self._all()), **self.counters()}

    def restore(self, state: Dict[str, object]) -> None:
        """Silently load a :meth:`checkpoint_state` capture: no
        subscriber or eviction callbacks fire (consumers restore their
        own durable aggregates — the checkpoint pickles the ledger
        whole), and the pinned/tail split is reinstated exactly."""
        events = list(state["events"])
        pinned = int(state["pinned"])
        with self._lock:
            self._pinned = events[:pinned]
            self._tail = deque(events[pinned:])
            self.evicted = int(state["evicted"])
            self._seq = int(state["seq"])

    def subscribe(self, callback: Callable[[VerdictEvent], None]) -> None:
        """Call ``callback`` with every subsequently recorded event."""
        self._subscribers.append(callback)

    def on_evict(self, callback: Callable[[VerdictEvent], None]) -> None:
        """Call ``callback`` with every clean event the ``max_events``
        bound drops, *before* it is gone — a consumer keeping durable
        aggregates (the accountability ledger's per-AS counters) folds
        the event here so eviction never loses information it needs.
        Violations are pinned, never evicted, and never reported."""
        self._evict_subscribers.append(callback)

    # -- the committed view (reads beside a writer) --------------------------

    def commit(self) -> None:
        """Advance the read watermark to everything recorded so far.
        The serving coordinator calls this after each write group
        commits (and once after journal recovery), so a reader never
        sees a half-folded epoch."""
        with self._lock:
            self._committed = self._seq

    def committed_view(self) -> "EvidenceStore":
        """A detached copy of the trail as of the last :meth:`commit`
        — every stored event with ``seq`` up to the watermark, in
        recording order — safe to query while another thread records.
        Events are shared, not copied.  Eviction is a memory bound, not
        part of the trail: what an uncommitted epoch evicted is already
        gone from the view (and counted in its ``evicted``)."""
        view = EvidenceStore(self.keystore)
        with self._lock:
            events = list(self._all())
            view.evicted = self.evicted
            watermark = self._committed
        while events and events[-1].seq > watermark:
            events.pop()
        view._tail = deque(events)
        view._seq = view._committed = watermark
        return view

    # -- queries -------------------------------------------------------------

    def events(self) -> Tuple[VerdictEvent, ...]:
        return tuple(self._all())

    def __len__(self) -> int:
        return len(self._pinned) + len(self._tail)

    def by_asn(self, asn: str) -> Tuple[VerdictEvent, ...]:
        """Every event auditing ``asn`` (as the prover under a policy)."""
        return tuple(e for e in self._all() if e.asn == asn)

    def by_prefix(self, prefix: Prefix) -> Tuple[VerdictEvent, ...]:
        return tuple(e for e in self._all() if e.prefix == prefix)

    def by_epoch(self, epoch: Optional[int]) -> Tuple[VerdictEvent, ...]:
        """Events of one epoch; ``None`` selects out-of-epoch audits
        (:meth:`~repro.audit.monitor.Monitor.audit_once` rounds)."""
        return tuple(e for e in self._all() if e.epoch == epoch)

    def violations(
        self,
        asn: Optional[str] = None,
        prefix: Optional[Prefix] = None,
    ) -> Tuple[VerdictEvent, ...]:
        """Every event whose report flags a violation or equivocation,
        optionally narrowed to one prover AS and/or one prefix — what
        :meth:`adjudicate` rules on by default."""
        return tuple(
            e for e in self._all()
            if e.violation_found()
            and (asn is None or e.asn == asn)
            and (prefix is None or e.prefix == prefix)
        )

    def violation_free(self) -> bool:
        return not self.violations()

    def evidence(self) -> Tuple[Evidence, ...]:
        """All transferable evidence across the recorded trail."""
        found: List[Evidence] = []
        for event in self._all():
            found.extend(event.report.all_evidence())
        return tuple(found)

    # -- adjudication on demand ---------------------------------------------

    def adjudicate(
        self,
        event: Optional[VerdictEvent] = None,
        *,
        judge: Optional[Judge] = None,
    ) -> Dict[int, Adjudication]:
        """Run the judge over ``event`` (default: every stored violation).

        Returns ``{event.seq: Adjudication}``; rulings are also stored on
        each event's report, so repeated queries are free.
        """
        if judge is None:
            if self.keystore is None:
                raise ValueError(
                    "no judge given and the store has no keystore"
                )
            judge = Judge(self.keystore)
        targets = (event,) if event is not None else self.violations()
        rulings: Dict[int, Adjudication] = {}
        for target in targets:
            if target.report.adjudication is None:
                target.report.adjudicate(judge)
            rulings[target.seq] = target.report.adjudication
        return rulings

    # -- summaries -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        events = self.events()
        return {
            "events": len(events),
            "evicted": self.evicted,
            "verified": sum(1 for e in events if not e.reused),
            "reused": sum(1 for e in events if e.reused),
            "violations": len(self.violations()),
            "ases": sorted({e.asn for e in events}),
            "last_epoch": max(
                (e.epoch for e in events if e.epoch is not None), default=0
            ),
        }
