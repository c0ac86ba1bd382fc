"""``repro.serve``: the asynchronous verification service.

The audit plane (:mod:`repro.audit`) verifies and the cluster
coordinator (:class:`~repro.cluster.cluster.Cluster`) serves; this
package is the coordinator's asyncio door.  The request vocabulary, the
admission plane (:class:`~repro.cluster.admission.AdmissionQueue`), the
metrics ledger (:class:`~repro.cluster.metrics.ClusterMetrics`) and the
whole churn → verdict path with its worker pool (``Cluster`` itself and
:class:`~repro.cluster.pool.ShardExecutor`) are :mod:`repro.cluster`'s
— import them from there; this package exports what it defines:

* :class:`~repro.serve.service.VerificationService` — futures and a
  dispatcher task over one private ``Cluster``; it assembles nothing
  itself, so a request means on this door exactly what it means on
  ``Cluster.request``;
* :mod:`~repro.serve.loadgen` — deterministic open-loop workloads
  (churn bursts, query storms, violation injection, Zipf hot-prefix
  skew) and their real-time asyncio driver.

Run ``python -m repro.serve`` for the service + load-generator CLI.
"""

from repro.serve.loadgen import (
    LoadProfile,
    LoadReport,
    Op,
    ServeWorkload,
    ZipfSampler,
    build_schedule,
    run_open_loop,
)
from repro.serve.service import VerificationService

__all__ = [
    "LoadProfile",
    "LoadReport",
    "Op",
    "ServeWorkload",
    "VerificationService",
    "ZipfSampler",
    "build_schedule",
    "run_open_loop",
]
