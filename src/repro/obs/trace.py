"""Deterministic span/event tracing.

A :class:`TraceContext` hands out :class:`Span` objects whose ids are
``"{label}:{counter}"`` — a per-context monotonic counter, so the same
call sequence always produces the same ids and nothing here consumes
randomness.  Spans double as the **one obs timer**: ``begin`` stamps
``start`` and ``finish`` stamps ``end`` even when tracing is disabled,
so hosts derive their ``wall_seconds`` from ``span.duration`` whether
or not records are kept — tracing on/off cannot change any computed
value that reaches the evidence trail (it never could: the trail hashes
no wall-clock data) nor any report field.

Closed spans become plain dict **records** (JSON-ready) appended to the
context's bounded ``records`` deque and forwarded to an attached
:class:`~repro.obs.recorder.FlightRecorder`.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

__all__ = ["Span", "Stopwatch", "TraceContext"]

#: the one obs clock — every stage wall in the system reads this
CLOCK = time.perf_counter


class Stopwatch:
    """A context-managed interval on the obs clock, for call sites that
    need a bare duration with no span (e.g. per-task walls inside a
    shard worker process, where no TraceContext lives)."""

    __slots__ = ("started", "seconds")

    def __init__(self) -> None:
        self.started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self.started = CLOCK()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = CLOCK() - self.started


class Span:
    """One traced interval.  Mutable: hosts close it, annotate attrs,
    or mark it ``reaped``/``error`` after the fact."""

    __slots__ = (
        "id", "parent", "name", "component", "epoch", "worker",
        "start", "end", "status", "attrs",
    )

    def __init__(
        self,
        *,
        id: str,
        parent: Optional[str],
        name: str,
        component: str,
        epoch: Optional[int] = None,
        worker: Optional[int] = None,
        start: float = 0.0,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.component = component
        self.epoch = epoch
        self.worker = worker
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs: Dict[str, object] = attrs or {}

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.end if self.end is not None else CLOCK()
        return end - self.start

    def to_record(self, kind: str = "span") -> Dict[str, object]:
        return {
            "kind": kind,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "component": self.component,
            "epoch": self.epoch,
            "worker": self.worker,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"<Span {self.id} {self.name} {state}>"


class TraceContext:
    """A per-process span factory and record buffer.

    ``enabled=False`` keeps the timer behaviour (spans are created and
    closed, ``duration`` works) but records nothing — the cheap path
    every host uses when tracing is off.
    """

    def __init__(
        self,
        label: str = "t",
        *,
        enabled: bool = True,
        keep: int = 4096,
        recorder=None,
    ) -> None:
        self.label = label
        self.enabled = enabled
        self.records: deque = deque(maxlen=keep)
        self.open: Dict[str, Span] = {}
        self.recorder = recorder
        self._counter = 0
        self._stack: List[Span] = []

    # -- ids ------------------------------------------------------------------

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self.label}:{self._counter}"

    # -- span lifecycle -------------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        component: str = "obs",
        epoch: Optional[int] = None,
        worker: Optional[int] = None,
        detached: bool = False,
        **attrs: object,
    ) -> Span:
        """Open a span.  Always returns a live Span (the obs timer);
        only registers it for recording when the context is enabled.
        A ``detached`` span parents under the current stack top but is
        not pushed — for concurrent siblings (one slice span per worker
        in flight at once) that close out of order."""
        parent = self._stack[-1].id if (self.enabled and self._stack) else None
        span = Span(
            id=self._next_id(),
            parent=parent,
            name=name,
            component=component,
            epoch=epoch,
            worker=worker,
            start=CLOCK(),
            attrs=attrs,
        )
        if self.enabled:
            self.open[span.id] = span
            if not detached:
                self._stack.append(span)
        return span

    def finish(self, span: Span, status: Optional[str] = None) -> Span:
        """Close a span and record it.  Idempotent: a span already
        closed (e.g. closed early to pin a wall, then re-finished by a
        ``finally``) is not re-recorded."""
        if status is not None:
            span.status = status
        if span.end is not None:
            return span
        span.end = CLOCK()
        if self.enabled and span.id in self.open:
            del self.open[span.id]
            if span in self._stack:
                self._stack.remove(span)
            self._record(span.to_record())
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        component: str = "obs",
        epoch: Optional[int] = None,
        worker: Optional[int] = None,
        **attrs: object,
    ):
        """``with tracer.span("merge", ...) as sp:`` — closes on exit,
        status ``"error"`` if the body raised."""
        sp = self.begin(
            name, component=component, epoch=epoch, worker=worker, **attrs
        )
        try:
            yield sp
        except BaseException:
            self.finish(sp, status="error")
            raise
        self.finish(sp)

    def event(
        self,
        name: str,
        *,
        component: str = "obs",
        epoch: Optional[int] = None,
        worker: Optional[int] = None,
        **attrs: object,
    ) -> None:
        """A zero-duration record (heartbeat, reap, decision, ...)."""
        if not self.enabled:
            return
        now = CLOCK()
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            id=self._next_id(),
            parent=parent,
            name=name,
            component=component,
            epoch=epoch,
            worker=worker,
            start=now,
            attrs=attrs,
        )
        span.end = now
        self._record(span.to_record(kind="event"))

    # -- record plumbing ------------------------------------------------------

    def _record(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        if self.recorder is not None:
            self.recorder.record(record)

    def take_records(self) -> Tuple[Dict[str, object], ...]:
        """Drain and return the closed records (plain dicts)."""
        drained = tuple(self.records)
        self.records.clear()
        return drained

    def open_records(self) -> List[Dict[str, object]]:
        """Serialize every still-open span (``end: null``) — what the
        flight recorder appends to a crash dump."""
        return [
            self.open[key].to_record()
            for key in sorted(self.open, key=_id_sort_key)
        ]


def _id_sort_key(span_id: str) -> Tuple[str, int]:
    label, _, count = span_id.rpartition(":")
    return (label, int(count) if count.isdigit() else 0)
