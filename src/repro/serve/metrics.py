"""Serving metrics: throughput, tail latency, admission accounting.

The serving layer's product is a latency distribution, not a mean: an
audit plane in front of BGP churn is judged by what its slowest
requests see.  :class:`LatencySeries` (the shared implementation from
:mod:`repro.control.signals`, re-exported here) keeps raw samples and
answers nearest-rank percentiles exactly (no streaming sketch — sample
counts here are bounded by the workload, and exactness keeps reported
percentiles reproducible to the sample).  :class:`ServeMetrics` is the
service-wide ledger: per-request-type admission counters and latency
series, per-shard event counts, epoch/coalescing
counters with per-epoch wall-clock and batch sizes, and the
verdict-parity self-check tallies the CI smoke job gates on.
``snapshot()`` emits the schema-versioned unified envelope
(:mod:`repro.control.envelope`) the CLI writes and CI uploads.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.control.envelope import TypeMetrics, envelope, placement_section
from repro.control.signals import LatencySeries

__all__ = ["LatencySeries", "ServeMetrics", "SCHEMA", "SCHEMA_VERSION"]

SCHEMA = "repro.serve/metrics"
#: version 3 dropped the pre-v2 ``sharding`` alias of the canonical
#: ``placement`` section.  Version 2 moved onto the unified envelope
#: (``repro.control``): ``placement`` section, ``epochs.wall``/
#: ``epochs.coalesced_batches`` stats, and a ``control`` section
#: carrying the controller snapshot when the control plane is enabled
SCHEMA_VERSION = 3


class ServeMetrics:
    """The service-wide ledger, shared by service, loadgen and CLI."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self._types: Dict[str, TypeMetrics] = {}
        # epoch pipeline
        self.epochs = 0
        self.coalesced_requests = 0
        self.events = 0
        self.verified = 0
        self.reused = 0
        self.violations = 0
        self.deferred = 0
        self.epoch_wall = LatencySeries()
        self.batch_sizes: List[int] = []
        # out-of-epoch Byzantine probes (the loadgen's violation injection)
        self.probes = 0
        self.probe_violations = 0
        # sharding
        self.shards = 0
        self.shard_events: Dict[int, int] = {}
        # verdict-parity self-checks (CI gates on failed == 0)
        self.parity_checked = 0
        self.parity_failed = 0
        #: the controller, when the control plane is enabled (set by
        #: the service so ``snapshot()`` can embed its decision log)
        self.control = None

    def type_metrics(self, kind: str) -> TypeMetrics:
        return self._types.setdefault(kind, TypeMetrics())

    # -- admission ----------------------------------------------------------

    def admit(self, kind: str) -> None:
        self.type_metrics(kind).admitted += 1

    def reject(self, kind: str) -> None:
        self.type_metrics(kind).rejected += 1

    def drop(self, kind: str) -> None:
        """A request lost in transit (the simnet gateway's drops)."""
        self.type_metrics(kind).dropped += 1

    def shed_one(self, kind: str) -> None:
        """A request shed at dispatch (deadline-based admission)."""
        self.type_metrics(kind).shed += 1

    def complete(
        self,
        kind: str,
        *,
        latency: float,
        queue_delay: float,
        service: float,
    ) -> None:
        self.type_metrics(kind).note_complete(latency, queue_delay, service)

    # -- the epoch pipeline -------------------------------------------------

    def note_epoch(self, report, *, coalesced: int = 1) -> None:
        """Absorb one :class:`~repro.audit.events.EpochReport`."""
        self.epochs += 1
        self.coalesced_requests += coalesced
        self.events += len(report.events)
        self.verified += report.verified
        self.reused += report.reused
        self.violations += len(report.violations())
        self.deferred += len(report.deferred)
        if report.wall_seconds:
            self.epoch_wall.add(report.wall_seconds)
        if coalesced > 0:
            self.batch_sizes.append(coalesced)

    def note_probes(self, events) -> None:
        """Absorb out-of-epoch audit probes (violation injection)."""
        self.probes += len(events)
        self.probe_violations += sum(
            1 for e in events if e.violation_found()
        )

    def note_shard(self, shard: int, events: int) -> None:
        self.shard_events[shard] = self.shard_events.get(shard, 0) + events

    def note_parity(self, checked: int, failed: int) -> None:
        self.parity_checked += checked
        self.parity_failed += failed

    # -- reporting ----------------------------------------------------------

    def window_seconds(self) -> float:
        return time.perf_counter() - self.started

    def snapshot(self) -> Dict[str, object]:
        """The schema-versioned, JSON-serializable metrics document."""
        window = self.window_seconds()
        sizes = self.batch_sizes
        return envelope(
            schema=SCHEMA,
            schema_version=SCHEMA_VERSION,
            window_seconds=window,
            types=self._types,
            epochs={
                "count": self.epochs,
                "coalesced_requests": self.coalesced_requests,
                "events": self.events,
                "verified": self.verified,
                "reused": self.reused,
                "violations": self.violations,
                "deferred": self.deferred,
                "wall": self.epoch_wall.summary(),
                "coalesced_batches": {
                    "count": len(sizes),
                    "max_size": max(sizes) if sizes else None,
                    "mean_size": (
                        (sum(sizes) / len(sizes)) if sizes else None
                    ),
                },
            },
            probes={
                "count": self.probes,
                "violations": self.probe_violations,
            },
            placement=placement_section(
                spec={"shards": self.shards},
                load=self.shard_events,
                reshards=[],
            ),
            control=(
                self.control.snapshot() if self.control is not None else None
            ),
            parity={
                "checked": self.parity_checked,
                "failed": self.parity_failed,
            },
        )

    def table_rows(self) -> List[tuple]:
        """CLI rows: one per request type."""
        rows = []
        for kind in sorted(self._types):
            tm = self._types[kind]

            def ms(value):
                return "-" if value is None else f"{value * 1000:.1f}"

            rows.append((
                kind,
                tm.admitted,
                tm.rejected,
                tm.dropped,
                tm.completed,
                ms(tm.latency.percentile(50)),
                ms(tm.latency.percentile(90)),
                ms(tm.latency.percentile(99)),
                ms(tm.latency.max()),
            ))
        return rows
