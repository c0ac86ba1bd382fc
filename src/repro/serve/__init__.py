"""``repro.serve``: the asynchronous verification service.

The audit plane (:mod:`repro.audit`) verifies; this package *serves* —
an admission queue over a stateless pool of round workers, turning one
monitor into something that fronts heavy traffic.  The request
vocabulary, the admission plane
(:class:`~repro.cluster.admission.AdmissionQueue` and its
:class:`~repro.cluster.admission.AdmissionPolicy` seam) and the
metrics ledger (:class:`~repro.cluster.metrics.ClusterMetrics`) are the
cluster API's — import them from :mod:`repro.cluster`; this package
exports what it defines.  The request lifecycle is
**admit → shard → verify → merge**:

* :class:`~repro.serve.service.VerificationService` — an asyncio
  host of the shared admission queue (bounded, churn-coalescing) over
  the three request types (:class:`~repro.cluster.requests.ChurnRequest`,
  :class:`~repro.cluster.requests.QueryRequest`,
  :class:`~repro.cluster.requests.AdjudicateRequest`);
* :mod:`~repro.serve.sharding` —
  :class:`~repro.serve.sharding.ShardExecutor` dealing each epoch's
  fresh verifications evenly across worker processes
  (:class:`~repro.serve.sharding.ShardPool`), each one an off-wire
  replay of its planned round
  (:func:`repro.audit.wire.run_offwire_round`);
* :mod:`~repro.serve.merge` — folds the executed rounds back into the
  evidence store in plan order, byte-identical to an unsharded monitor
  run;
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
from repro.serve.merge import MergeError, fold_plan
from repro.serve.service import VerificationService
from repro.serve.sharding import ShardExecutor, ShardTask

__all__ = [
    "LoadProfile",
    "LoadReport",
    "MergeError",
    "Op",
    "ServeWorkload",
    "ShardExecutor",
    "ShardTask",
    "SimnetGateway",
    "VerificationService",
    "ZipfSampler",
    "build_schedule",
    "flap_storm",
    "fold_plan",
    "run_open_loop",
    "run_scripted",
    "table_reset",
]
