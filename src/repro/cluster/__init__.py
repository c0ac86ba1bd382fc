"""``repro.cluster``: placement-driven multi-process verification.

The serve layer (:mod:`repro.serve`) shards *execution* under one
process; this package distributes the whole audit plane.  A declarative
:class:`~repro.cluster.spec.ClusterSpec` builds a
:class:`~repro.cluster.cluster.Cluster` of fully independent
:class:`~repro.audit.monitor.Monitor` workers — one process, network
replica, keystore and evidence store each — behind a real IPC admission
plane, with three pluggable seams:

* :class:`~repro.cluster.placement.Placement` — who owns which slice of
  the (AS, prefix) policy space: :class:`~repro.cluster.placement.StaticHash`
  (the classic modulo), :class:`~repro.cluster.placement.ConsistentHash`
  (virtual nodes, cheap online resharding) and
  :class:`~repro.cluster.placement.HotSplit` (splits hot shards from the
  observed load, between epochs);
* :class:`~repro.cluster.admission.AdmissionPolicy` — reject at the
  door, deadline-based shedding, or per-request-type priorities,
  applied by the one :class:`~repro.cluster.admission.AdmissionQueue`
  this coordinator and :mod:`repro.serve` both host;
* transport — ``"process"`` workers over multiprocessing pipes, or
  ``"inline"`` workers speaking the identical protocol in-process.

Workers **co-plan** every epoch deterministically, execute only their
slice, and *stream* completed positions back; the coordinator folds the
streams into plan order (:mod:`repro.cluster.fold`), so the trail is
byte-identical to an unsharded monitor — including across an online
:meth:`~repro.cluster.cluster.Cluster.reshard` that migrates ownership
and commitment-cache entries mid-run, and across **worker deaths**: a
worker that crashes, closes its pipe or misses the epoch deadline is
backfilled by a buddy and respawned from a live snapshot
(:class:`~repro.cluster.spec.ChaosSpec` injects such deaths
deterministically).  Adjacent queued churn requests coalesce into one
epoch sequence (``coalesce_max``).

With ``ClusterSpec.journal`` set, the coordinator write-ahead-journals
every fold seam (:mod:`repro.journal`): a coordinator killed mid-run
restarts at the last commit boundary with a byte-identical trail, and
:class:`~repro.cluster.rolling.RollingReplacer` recycles live workers
one per step through the same bootstrap path.

Run ``python -m repro.cluster`` for the cluster CLI (drives a churn
workload through N workers with an optional mid-run reshard and checks
parity against the unsharded reference).
"""

from repro.cluster.admission import (
    AdmissionPolicy,
    AdmissionQueue,
    DeadlineShed,
    PriorityAdmission,
    RejectAtDoor,
    ShedError,
    Ticket,
    make_admission,
)
from repro.cluster.cluster import Cluster, ClusterError, EpochOutcome
from repro.cluster.metrics import ClusterMetrics, LatencySeries
from repro.cluster.placement import (
    ConsistentHash,
    HotSplit,
    Placement,
    StaticHash,
    make_placement,
    moved_pairs,
    pair_key,
)
from repro.cluster.requests import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    Completion,
    QueryRequest,
    SnapshotChunk,
)
from repro.cluster.rolling import RollingReplacer
from repro.cluster.spec import ChaosSpec, ClusterSpec, PolicySpec

__all__ = [
    "AdjudicateRequest",
    "ChaosSpec",
    "AdmissionError",
    "AdmissionPolicy",
    "AdmissionQueue",
    "AuditProbe",
    "ChurnRequest",
    "Cluster",
    "ClusterError",
    "ClusterMetrics",
    "ClusterSpec",
    "Completion",
    "ConsistentHash",
    "DeadlineShed",
    "EpochOutcome",
    "HotSplit",
    "LatencySeries",
    "Placement",
    "PolicySpec",
    "PriorityAdmission",
    "QueryRequest",
    "RejectAtDoor",
    "RollingReplacer",
    "ShedError",
    "SnapshotChunk",
    "StaticHash",
    "Ticket",
    "make_admission",
    "make_placement",
    "moved_pairs",
    "pair_key",
]
