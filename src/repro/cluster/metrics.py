"""The serving ledger: one metrics class for both front-ends.

The serving layer's product is a latency distribution, not a mean, so
the ledger keeps raw samples (:class:`LatencySeries`) and reports exact
nearest-rank percentiles (:func:`nearest_rank` — the one percentile
implementation in the repo).

:class:`ClusterMetrics` is the ledger the coordinator
(:class:`~repro.cluster.cluster.Cluster`, through its
:class:`~repro.cluster.admission.AdmissionQueue` and pipeline) writes
and either door reads:
per-request-type admission/latency accounting, per-worker
fresh-verification load, epoch/reuse counters plus per-epoch
wall-clock and coalesced-batch sizes, worker respawns, and the
verdict-parity self-check tallies the CI smoke jobs gate on.
``snapshot()`` emits the one schema-versioned JSON document; sections
a run never feeds stay empty.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from repro.obs.trace import CLOCK

__all__ = [
    "ClusterMetrics",
    "LatencySeries",
    "PERCENTILES",
    "REQUEST_COLUMNS",
    "SCHEMA",
    "SCHEMA_VERSION",
    "TypeMetrics",
    "nearest_rank",
    "request_rows",
]

SCHEMA = "repro.cluster/metrics"
#: version 8 follows reads leaving the queue: the ``admission`` and
#: ``control`` sections are gone (one admission rule, no controller);
#: a ``query`` record's ``queue_delay`` is all zeros; every request
#: record's ``shed`` is a constant 0 (and ``dropped`` too, since the
#: simulated client gateway went).
#: Version 7 followed the single round pool: ``placement.reshards``,
#: ``replacements`` and the respawn records' ``installed_cache_entries``
#: are gone (stateless workers have nothing to move or install),
#: ``placement.spec`` is ``{"shards": N}`` and ``placement.load`` counts
#: fresh rounds per executing worker on both hosts, and ``workers`` /
#: ``respawns`` are filled by the serve host too.
#: Version 6 is the one document both hosts emit (``repro.serve/metrics``
#: is retired): ``epochs.coalesced_requests`` counts only requests that
#: shared an epoch sequence with another on either host, the cluster
#: fills ``queue_delay``/``service_time``, and the serve host reports
#: its ``admission`` policy.  Version 5 dropped ``placement.events_per_worker``, the deprecated
#: alias of ``placement.load``.  Version 4 added the durability
#: records: ``replacements`` (rolling worker replacement) and
#: ``recoveries`` (journal replay on restart) in the extra section,
#: plus the Cluster-level ``journal`` section when a write-ahead
#: journal is configured.  Version 3 moved onto the unified envelope
#: (``repro.control``): the ``requests`` records gained ``dropped``/
#: ``throughput_rps``/``queue_delay``/``service_time``, ``epochs``
#: gained per-epoch ``wall`` and ``coalesced_batches`` stats,
#: ``placement`` gained the canonical ``load`` map, and a ``control``
#: section carries the controller snapshot when the control plane is
#: enabled.  Version 2 added the per-worker
#: ``workers`` section and ``respawns``.
SCHEMA_VERSION = 8

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
    whole run (sample counts are bounded by the workload).
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


class TypeMetrics:
    """Admission counters and latency series for one request type:
    door outcomes plus the end-to-end latency split into queue delay
    (zero for reads — they never queue) and service time."""

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.latency = LatencySeries()  # enqueue -> done
        self.queue_delay = LatencySeries()  # enqueue -> dispatch
        self.service = LatencySeries()  # dispatch -> done

    def record(self, window: float) -> Dict[str, object]:
        """The JSON record of this request type over ``window`` seconds."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            # nothing drops or sheds; the keys stay only because the
            # frozen ``benchmarks/e2e`` sums them (ROADMAP item 1)
            "dropped": 0,
            "shed": 0,
            "completed": self.completed,
            "throughput_rps": (
                self.completed / window if window > 0 else None
            ),
            "latency": self.latency.summary(),
            "queue_delay": self.queue_delay.summary(),
            "service_time": self.service.summary(),
        }


class ClusterMetrics:
    """The service-wide ledger of one serving front-end."""

    def __init__(self) -> None:
        self.started = CLOCK()
        self._types: Dict[str, TypeMetrics] = {}
        #: what ``snapshot()`` describes (anything with ``describe()`` —
        #: the ``ShardExecutor``)
        self.placement = None
        # the epoch pipeline
        self.epochs = 0
        self.events = 0
        self.verified = 0
        self.reused = 0
        self.violations = 0
        self.deferred = 0
        self.probes = 0
        self.probe_violations = 0
        #: churn requests that shared an epoch sequence with at least
        #: one other request (epoch pipelining's coalescing win)
        self.coalesced_requests = 0
        #: coordinator-side wall clock per epoch drive
        self.epoch_wall = LatencySeries()
        #: sizes of the coalesced churn groups (first epochs only)
        self.batch_sizes: List[int] = []
        # fresh rounds per executing worker
        self.worker_events: Dict[int, int] = {}
        # per-worker batch execution
        self.slice_latency: Dict[int, LatencySeries] = {}
        self.slice_events: Dict[int, int] = {}
        self.backfilled: Dict[int, int] = {}
        # failure tolerance
        self.respawns: List[Dict[str, object]] = []
        # durability: journal replays a restarted coordinator ran
        self.recoveries: List[Dict[str, object]] = []
        # verdict-parity self-checks (CI gates on failed == 0)
        self.parity_checked = 0
        self.parity_failed = 0

    def type_metrics(self, kind: str) -> TypeMetrics:
        return self._types.setdefault(kind, TypeMetrics())

    # -- admission ----------------------------------------------------------

    def admit(self, kind: str) -> None:
        self.type_metrics(kind).admitted += 1

    def reject(self, kind: str) -> None:
        self.type_metrics(kind).rejected += 1

    def complete(
        self,
        kind: str,
        *,
        latency: float,
        queue_delay: float,
        service: float,
    ) -> None:
        tm = self.type_metrics(kind)
        tm.completed += 1
        tm.latency.add(latency)
        tm.queue_delay.add(queue_delay)
        tm.service.add(service)

    # -- the epoch pipeline -------------------------------------------------

    def note_epoch(self, report, *, coalesced: int = 0) -> None:
        """Absorb one :class:`~repro.audit.events.EpochReport`.
        ``coalesced`` is how many churn requests this epoch served at
        once (0 for epochs that are not a group's first)."""
        self.epochs += 1
        self.events += len(report.events)
        self.verified += report.verified
        self.reused += report.reused
        self.violations += len(report.violations())
        self.deferred += len(report.deferred)
        if report.wall_seconds:
            self.epoch_wall.add(report.wall_seconds)
        if coalesced > 0:
            self.batch_sizes.append(coalesced)
        if coalesced > 1:
            self.coalesced_requests += coalesced

    def note_slice(self, stats) -> None:
        """Absorb one :class:`~repro.audit.events.SliceStats`."""
        series = self.slice_latency.setdefault(
            stats.worker, LatencySeries()
        )
        series.add(stats.wall_seconds)
        self.slice_events[stats.worker] = (
            self.slice_events.get(stats.worker, 0) + stats.events
        )
        if stats.backfilled:
            self.backfilled[stats.worker] = (
                self.backfilled.get(stats.worker, 0) + stats.backfilled
            )

    def note_respawn(self, *, worker: int, reason: str) -> None:
        self.respawns.append({"worker": worker, "reason": reason})

    def note_recovery(
        self,
        *,
        records: int,
        truncated: int,
        committed: int,
        epoch: int,
        spawned: int,
    ) -> None:
        self.recoveries.append({
            "replayed_records": records,
            "truncated_records": truncated,
            "committed_requests": committed,
            "epoch": epoch,
            # always 0: workers hold nothing worth adopting.  The key
            # stays only because ``benchmarks/e2e`` reads it
            "adopted_workers": 0,
            "spawned_workers": spawned,
        })

    def note_probes(self, events) -> None:
        self.probes += len(events)
        self.probe_violations += sum(1 for e in events if e.violation_found())

    def note_worker(self, worker: int, fresh: int) -> None:
        self.worker_events[worker] = (
            self.worker_events.get(worker, 0) + fresh
        )

    def note_parity(self, checked: int, failed: int) -> None:
        self.parity_checked += checked
        self.parity_failed += failed

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The schema-versioned, JSON-serializable metrics document.
        Round-tripped through :func:`json.dumps` so a non-serializable
        value fails loudly at the producer, not in a CI artifact step."""
        window = CLOCK() - self.started
        sizes = self.batch_sizes
        placement = self.placement
        document = {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "window_seconds": window,
            "requests": {
                kind: self._types[kind].record(window)
                for kind in sorted(self._types)
            },
            "epochs": {
                "count": self.epochs,
                "events": self.events,
                "verified": self.verified,
                "reused": self.reused,
                "violations": self.violations,
                "deferred": self.deferred,
                "coalesced_requests": self.coalesced_requests,
                "wall": self.epoch_wall.summary(),
                "coalesced_batches": {
                    "count": len(sizes),
                    "max_size": max(sizes) if sizes else None,
                    "mean_size": (
                        (sum(sizes) / len(sizes)) if sizes else None
                    ),
                },
            },
            "probes": {
                "count": self.probes,
                "violations": self.probe_violations,
            },
            # fresh verifications run by each pool worker
            "placement": {
                "spec": None if placement is None else placement.describe(),
                "load": {
                    str(worker): count
                    for worker, count in sorted(self.worker_events.items())
                },
            },
            "parity": {
                "checked": self.parity_checked,
                "failed": self.parity_failed,
            },
            "workers": {
                str(worker): {
                    "slice_events": self.slice_events.get(worker, 0),
                    "backfilled": self.backfilled.get(worker, 0),
                    "slice_latency": series.summary(),
                }
                for worker, series in sorted(self.slice_latency.items())
            },
            "respawns": list(self.respawns),
            # coordinator-only (empty on the serve host)
            "recoveries": list(self.recoveries),
        }
        json.dumps(document)
        return document


REQUEST_COLUMNS = [
    "type", "admitted", "rejected", "completed",
    "p50 ms", "p90 ms", "p99 ms", "max ms",
]


def request_rows(snapshot: Dict[str, object]) -> List[tuple]:
    """The CLIs' request-latency table (:data:`REQUEST_COLUMNS`): one
    row per request type of a metrics ``snapshot()``."""

    def ms(value):
        return "-" if value is None else f"{value * 1000:.1f}"

    return [
        (
            kind,
            record["admitted"],
            record["rejected"],
            record["completed"],
            ms(record["latency"]["p50_s"]),
            ms(record["latency"]["p90_s"]),
            ms(record["latency"]["p99_s"]),
            ms(record["latency"]["max_s"]),
        )
        for kind, record in sorted(snapshot["requests"].items())
    ]
