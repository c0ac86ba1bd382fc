"""``repro.serve``: the asynchronous verification service.

The audit plane (:mod:`repro.audit`) verifies; this package *serves* —
an asyncio front-end that turns one monitor into something that fronts
heavy traffic.  The request vocabulary, the admission plane
(:class:`~repro.cluster.admission.AdmissionQueue` and its
:class:`~repro.cluster.admission.AdmissionPolicy` seam), the metrics
ledger (:class:`~repro.cluster.metrics.ClusterMetrics`) and the whole
churn → verdict pipeline with its worker pool
(:class:`~repro.cluster.pipeline.Pipeline`,
:class:`~repro.cluster.pool.ShardExecutor`) are :mod:`repro.cluster`'s
— import them from there; this package exports what it defines:

* :class:`~repro.serve.service.VerificationService` — an asyncio
  host of the shared admission queue (bounded, churn-coalescing) over
  the three request types (:class:`~repro.cluster.requests.ChurnRequest`,
  :class:`~repro.cluster.requests.QueryRequest`,
  :class:`~repro.cluster.requests.AdjudicateRequest`), running the
  shared pipeline in a worker thread;
* :mod:`~repro.serve.loadgen` — deterministic open-loop workloads
  (churn bursts, query storms, violation injection, Zipf hot-prefix
  skew), optionally routed over :mod:`repro.net.simnet` links.

Run ``python -m repro.serve`` for the service + load-generator CLI.
"""

from repro.serve.loadgen import (
    LoadProfile,
    LoadReport,
    Op,
    ServeWorkload,
    SimnetGateway,
    ZipfSampler,
    build_schedule,
    flap_storm,
    run_open_loop,
    run_scripted,
    table_reset,
)
from repro.serve.service import VerificationService

__all__ = [
    "LoadProfile",
    "LoadReport",
    "Op",
    "ServeWorkload",
    "SimnetGateway",
    "VerificationService",
    "ZipfSampler",
    "build_schedule",
    "flap_storm",
    "run_open_loop",
    "run_scripted",
    "table_reset",
]
