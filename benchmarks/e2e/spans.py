"""The benchmark's own span recorder.

Every layer is measured from outside: the drivers wrap each call into
the program in a span (name, layer, start, end, parent span, request
id).  Spans stay in memory and are written as JSONL only when the
workload ends.  The recorder is off in the pass that produces the
end-to-end metrics; named per-layer timings come from the traced pass
only, so the difference between the two passes is the tracing overhead.

A span's *layer* is the part of its name before the first dot
(``audit.plan`` -> ``audit``).  A layer's *self time* is its spans'
duration minus the part of that interval their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

CLOCK = time.perf_counter


class Recorder:
    """In-memory span store; a disabled recorder records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def open(self, name: str, request: str, parent: Optional[int] = None):
        """Start a span with an explicit parent — for requests that
        overlap in time (the open-loop generator), where a nesting
        stack cannot name the parent.  Close it with :meth:`close`."""
        if not self.enabled:
            return None
        span = {
            "id": len(self.spans) + 1,
            "name": name,
            "layer": name.split(".", 1)[0],
            "start": CLOCK(),
            "end": None,
            "parent": parent,
            "request": request,
        }
        self.spans.append(span)
        return span

    def close(self, span) -> None:
        if span is not None:
            span["end"] = CLOCK()

    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, request: str):
        """A nested span: its parent is the innermost open one."""
        if not self.enabled:
            yield None
            return
        span = self.open(name, request, self.current())
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            self.close(span)

    def total(self, *names: str, request: str = "") -> float:
        """Summed duration of every span with one of ``names`` whose
        request id starts with ``request``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] in names and s["request"].startswith(request)
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True))
                handle.write("\n")


def _covered(start: float, end: float, intervals: Iterable) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus what its direct children cover."""
    children: Dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def layer_budget(spans: List[dict], root: str = "bench.drive") -> List[dict]:
    """Per span name under the ``root`` spans: calls, busy seconds
    (summed durations), self seconds and self time's share of the
    roots' wall.  Where requests overlap (the open loop) the busy
    seconds of a name can exceed the wall."""
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["name"] == root]
    wall = sum(span["end"] - span["start"] for span in roots)
    root_ids = {span["id"] for span in roots}

    def under_root(span) -> bool:
        while span is not None:
            if span["id"] in root_ids:
                return True
            span = by_id.get(span["parent"])
        return False

    own = self_times(spans)
    rows: Dict[str, dict] = {}
    for span in spans:
        if not under_root(span):
            continue
        row = rows.setdefault(
            span["name"],
            {"name": span["name"], "layer": span["layer"], "calls": 0,
             "busy_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall else 0.0
    return sorted(rows.values(), key=lambda r: -r["self_s"])
