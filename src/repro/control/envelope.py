"""The one schema-versioned metrics envelope the serving stack emits.

``repro.serve.metrics`` and ``repro.cluster.metrics`` grew overlapping
snapshot shapes (same request counters, same epoch counters, same
parity tallies — different field names for placement).  This module
unifies them: :class:`TypeMetrics` is the shared per-request-type
record, :func:`request_record` its shared JSON shape, and
:func:`envelope` assembles the common document skeleton.  Each ledger
keeps its own schema name and version; placement is the canonical
``placement`` section (``spec``/``load``/``reshards``) in both.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.control.signals import LatencySeries

__all__ = ["TypeMetrics", "envelope", "request_record"]


class TypeMetrics:
    """Admission counters and latency series for one request type.

    The union of what the serve and cluster ledgers tracked:
    door/dispatch admission outcomes plus the end-to-end latency split
    into queue delay and service time (series stay empty where a host
    does not measure them — their summaries then report ``count: 0``).
    """

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected = 0
        self.dropped = 0  # lost in transit (the simnet gateway's drops)
        self.shed = 0  # shed at dispatch (deadline/adaptive admission)
        self.completed = 0
        self.latency = LatencySeries()  # enqueue (+ net delay) -> done
        self.queue_delay = LatencySeries()  # enqueue -> dispatch
        self.service = LatencySeries()  # dispatch -> done

    def note_complete(
        self,
        latency: float,
        queue_delay: Optional[float] = None,
        service: Optional[float] = None,
    ) -> None:
        self.completed += 1
        self.latency.add(latency)
        if queue_delay is not None:
            self.queue_delay.add(queue_delay)
        if service is not None:
            self.service.add(service)


def request_record(tm: TypeMetrics, window: float) -> Dict[str, object]:
    """The unified JSON record for one request type."""
    return {
        "admitted": tm.admitted,
        "rejected": tm.rejected,
        "dropped": tm.dropped,
        "shed": tm.shed,
        "completed": tm.completed,
        "throughput_rps": (tm.completed / window if window > 0 else None),
        "latency": tm.latency.summary(),
        "queue_delay": tm.queue_delay.summary(),
        "service_time": tm.service.summary(),
    }


def envelope(
    *,
    schema: str,
    schema_version: int,
    window_seconds: float,
    types: Dict[str, TypeMetrics],
    epochs: Dict[str, object],
    probes: Dict[str, object],
    placement: Dict[str, object],
    parity: Dict[str, object],
    admission: Optional[Dict[str, object]] = None,
    control: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble and validate the shared snapshot skeleton.

    ``extra`` carries the ledger-specific sections (cluster's
    ``workers``/``respawns``).  The document is
    round-tripped through :func:`json.dumps` so a non-serializable
    value fails loudly at the producer, not in a CI artifact step.
    """
    document: Dict[str, object] = {
        "schema": schema,
        "schema_version": schema_version,
        "window_seconds": window_seconds,
        "requests": {
            kind: request_record(types[kind], window_seconds)
            for kind in sorted(types)
        },
        "epochs": epochs,
        "probes": probes,
        "placement": placement,
        "admission": admission,
        "control": control,
        "parity": parity,
    }
    if extra:
        document.update(extra)
    json.dumps(document)  # must always serialize; fail loudly here
    return document


def placement_section(
    *,
    spec: Optional[Dict[str, object]],
    load: Dict[int, int],
    reshards: List[Dict[str, object]],
) -> Dict[str, object]:
    """The canonical placement section: ``spec``, per-shard ``load``
    (fresh verifications routed to each shard/worker), and the reshard
    history."""
    return {
        "spec": spec,
        "load": {str(shard): count for shard, count in sorted(load.items())},
        "reshards": list(reshards),
    }
