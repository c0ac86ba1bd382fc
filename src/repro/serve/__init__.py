"""``repro.serve``: the sharded, asynchronous verification service.

The audit plane (:mod:`repro.audit`) verifies; this package *serves* —
the layer that turns one monitor into something that fronts heavy
traffic.  Its seams are the cluster API's (:mod:`repro.cluster`): the
request vocabulary, :class:`~repro.cluster.placement.Placement` and
:class:`~repro.cluster.admission.AdmissionPolicy` are shared with the
multi-process :class:`~repro.cluster.cluster.Cluster`, and this module
re-exports them, so ``from repro.serve import ChurnRequest`` keeps
working.  The request lifecycle is **admit → shard → verify → merge**:

* :class:`~repro.serve.service.VerificationService` — an asyncio
  front-end with a bounded admission queue and churn coalescing; three
  request types (:class:`~repro.serve.service.ChurnRequest`,
  :class:`~repro.serve.service.QueryRequest`,
  :class:`~repro.serve.service.AdjudicateRequest`);
* :mod:`~repro.serve.sharding` — the (AS, prefix) shard key,
  :class:`~repro.serve.sharding.ShardExecutor` fanning each epoch's
  fresh verifications across worker processes
  (:class:`~repro.serve.sharding.ShardPool`), and
  :func:`~repro.serve.sharding.shard_filter` for distributed
  pair-filtered monitors;
* :mod:`~repro.serve.merge` — folds per-shard outcome streams back into
  the evidence store in plan order, byte-identical to an unsharded
  monitor run;
* :mod:`~repro.serve.loadgen` — deterministic open-loop workloads
  (churn bursts, query storms, violation injection, Zipf hot-prefix
  skew), optionally routed over :mod:`repro.net.simnet` links;
* :mod:`~repro.serve.metrics` — throughput and p50/p90/p99 latency per
  request type, per-shard load, and the verdict-parity self-check
  counters CI gates on.

Run ``python -m repro.serve`` for the service + load-generator CLI.
"""

from repro.cluster.admission import (
    AdmissionPolicy,
    DeadlineShed,
    PriorityAdmission,
    RejectAtDoor,
    ShedError,
)
from repro.cluster.placement import (
    ConsistentHash,
    HotSplit,
    Placement,
    StaticHash,
)
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
from repro.serve.merge import MergeError, fold_plan, shard_streams
from repro.serve.metrics import LatencySeries, ServeMetrics
from repro.serve.service import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    Completion,
    EpochOutcome,
    QueryRequest,
    VerificationService,
)
from repro.serve.sharding import (
    ShardExecutor,
    ShardOutcome,
    ShardTask,
    shard_filter,
    shard_key,
    shard_of,
)

__all__ = [
    "AdjudicateRequest",
    "AdmissionError",
    "AdmissionPolicy",
    "AuditProbe",
    "ChurnRequest",
    "Completion",
    "ConsistentHash",
    "DeadlineShed",
    "EpochOutcome",
    "HotSplit",
    "LatencySeries",
    "LoadProfile",
    "LoadReport",
    "MergeError",
    "Op",
    "Placement",
    "PriorityAdmission",
    "QueryRequest",
    "RejectAtDoor",
    "ServeMetrics",
    "ServeWorkload",
    "ShardExecutor",
    "ShardOutcome",
    "ShardTask",
    "ShedError",
    "SimnetGateway",
    "StaticHash",
    "VerificationService",
    "ZipfSampler",
    "build_schedule",
    "flap_storm",
    "fold_plan",
    "run_open_loop",
    "run_scripted",
    "shard_filter",
    "shard_key",
    "shard_of",
    "shard_streams",
    "table_reset",
]
