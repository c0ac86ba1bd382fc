"""Signal primitives: exact percentiles and ring-buffered windows.

This module is the single home of the nearest-rank percentile
computation the whole stack shares.  :class:`LatencySeries` (unbounded,
exact — used by the metrics ledgers, where sample counts are bounded by
the workload) and :class:`SignalWindow` (a fixed-capacity ring buffer —
used by the controller, which must answer "what did the last N epochs
look like" forever without growing) both delegate to
:func:`nearest_rank`.

:class:`SignalBus` is the controller's blackboard: hosts
(the ``Cluster`` coordinator and its admission queue) push named
observations as they happen — epoch wall-clock, admission-queue
fraction — and ``Controller.tick()`` reads sliding-window summaries off
it.  The bus holds plain floats only, so its snapshot is always
JSON-serializable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = [
    "LatencySeries",
    "PERCENTILES",
    "SignalBus",
    "SignalWindow",
    "nearest_rank",
]

#: the percentiles every snapshot reports
PERCENTILES = (50.0, 90.0, 99.0)


def nearest_rank(ordered: List[float], p: float) -> Optional[float]:
    """Exact nearest-rank percentile over an already-sorted list.

    Returns the smallest sample ≥ ``p`` percent of the distribution,
    or ``None`` on an empty list.  This is the one implementation of
    the rank rule; every percentile in the repo routes through it.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    if not ordered:
        return None
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


class LatencySeries:
    """Raw latency samples with exact nearest-rank percentiles.

    Unbounded: keeps every sample, so percentiles are exact over the
    whole run.  For a sliding window, use :class:`SignalWindow`.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency cannot be negative: {seconds}")
        self._samples.append(seconds)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._samples)

    def _ordered(self) -> List[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile: the smallest sample ≥ p% of the
        distribution.  ``None`` on an empty series."""
        return nearest_rank(self._ordered(), p)

    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    def max(self) -> Optional[float]:
        return self._ordered()[-1] if self._samples else None

    def summary(self) -> Dict[str, object]:
        return {
            "count": len(self._samples),
            "mean_s": self.mean(),
            "max_s": self.max(),
            **{f"p{p:g}_s": self.percentile(p) for p in PERCENTILES},
        }


class SignalWindow:
    """A fixed-capacity ring buffer of float observations.

    Percentiles are exact nearest-rank over the window's current
    contents.  Unlike :class:`LatencySeries` this forgets: once more
    than ``capacity`` observations have arrived, the oldest fall off —
    the controller reasons about the recent past, not the whole run.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive: {capacity}")
        self.capacity = capacity
        self._ring: List[float] = []
        self._next = 0  # ring write position once full
        self.observed = 0  # total observations ever (including evicted)

    def observe(self, value: float) -> None:
        value = float(value)
        if len(self._ring) < self.capacity:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self.capacity
        self.observed += 1

    def __len__(self) -> int:
        return len(self._ring)

    def values(self) -> List[float]:
        """Window contents oldest-first."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._next:] + self._ring[: self._next]

    def last(self) -> Optional[float]:
        if not self._ring:
            return None
        if len(self._ring) < self.capacity:
            return self._ring[-1]
        return self._ring[self._next - 1]

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the window; ``None`` on an
        empty window — **never** 0.0, so consumers can tell "no
        signal yet" from "measured zero" (the Controller holds its
        previous severity on ``None``)."""
        return nearest_rank(sorted(self._ring), p)

    def mean(self) -> Optional[float]:
        if not self._ring:
            return None
        return sum(self._ring) / len(self._ring)

    def max(self) -> Optional[float]:
        return max(self._ring) if self._ring else None

    def summary(self) -> Dict[str, object]:
        return {
            "count": len(self._ring),
            "observed": self.observed,
            "last": self.last(),
            "mean": self.mean(),
            "max": self.max(),
            **{f"p{p:g}": self.percentile(p) for p in PERCENTILES},
        }


class SignalBus:
    """Named sliding-window signals, fed by hosts and read by the
    controller.

    Convenience feeders give the well-known signals stable names:

    * ``epoch_wall`` — coordinator-side wall-clock per epoch drive
    * ``queue_fraction`` — admission-queue depth / configured limit
    """

    def __init__(self, window: int = 64) -> None:
        if window <= 0:
            raise ValueError(f"signal window must be positive: {window}")
        self.window = window
        self._signals: Dict[str, SignalWindow] = {}

    # -- generic ------------------------------------------------------------

    def signal(self, name: str) -> SignalWindow:
        """The window for ``name``, created on first use."""
        try:
            return self._signals[name]
        except KeyError:
            created = SignalWindow(self.window)
            self._signals[name] = created
            return created

    def observe(self, name: str, value: float) -> None:
        self.signal(name).observe(value)

    def percentile(self, name: str, p: float) -> Optional[float]:
        window = self._signals.get(name)
        return window.percentile(p) if window is not None else None

    def last(self, name: str) -> Optional[float]:
        window = self._signals.get(name)
        return window.last() if window is not None else None

    def names(self) -> List[str]:
        return sorted(self._signals)

    # -- the well-known signals ---------------------------------------------

    def observe_epoch_wall(self, seconds: float) -> None:
        self.observe("epoch_wall", seconds)

    def observe_queue_depth(self, depth: int, limit: int) -> None:
        fraction = depth / limit if limit > 0 else 0.0
        self.observe("queue_fraction", fraction)

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "schema": "repro.control/signals",
            "schema_version": 1,
            "window": self.window,
            "signals": {
                name: self._signals[name].summary()
                for name in sorted(self._signals)
            },
        }
