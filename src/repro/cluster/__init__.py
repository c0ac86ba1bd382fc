"""``repro.cluster``: the serving substrate, and its durable host.

One pipeline turns churn into verdicts, and it is written once, here:
:class:`~repro.cluster.pipeline.Pipeline` applies a coalesced churn
group to the one :class:`~repro.audit.monitor.Monitor`, plans each
epoch centrally and deals the plan's fresh rounds to **one pool** of
stateless workers (:mod:`repro.cluster.pool`,
:mod:`repro.cluster.worker`) — a round is a pure function of what the
plan fixed, so workers hold keys and nothing else — then folds the
results back in plan order, byte-identical to an unsharded monitor.
One coordinator owns it, behind two doors:

* :class:`~repro.cluster.cluster.Cluster`, built from a declarative
  :class:`~repro.cluster.spec.ClusterSpec` — the coordinator and its
  synchronous door; failure injectable
  (:class:`~repro.cluster.spec.ChaosSpec`) and, with
  ``ClusterSpec.journal`` set, durable: it write-ahead-journals its
  state changes (:mod:`repro.journal`) and a coordinator killed mid-run
  restarts at the last commit boundary with a byte-identical trail;
* :class:`~repro.serve.service.VerificationService` — the asyncio
  door: futures and a dispatcher task over a private ``Cluster``.

Either door feeds the coordinator's one admission plane
(:class:`~repro.cluster.admission.AdmissionQueue`: writes enter a
bounded FIFO or are refused at the door, adjacent queued churn requests
coalesce into one epoch sequence; reads never queue — they are answered
at the door from the trail as of the last committed write group) and
reads its one metrics ledger
(:class:`~repro.cluster.metrics.ClusterMetrics`).
A worker that crashes, closes its pipe, misses the epoch deadline or
goes silent costs a retry of its unfinished rounds on a survivor and a
fresh fork — never the epoch.

Run ``python -m repro.cluster`` for the cluster CLI (drives a churn
workload through N workers, optionally killing one, and checks parity
against the unsharded reference).
"""

from repro.cluster.admission import AdmissionQueue, Ticket
from repro.cluster.cluster import Cluster, ClusterError, EpochOutcome
from repro.cluster.metrics import ClusterMetrics, LatencySeries
from repro.cluster.requests import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    Completion,
    QueryRequest,
    ServiceStopped,
    ShedError,
)
from repro.cluster.spec import ChaosSpec, ClusterSpec, PolicySpec

__all__ = [
    "AdjudicateRequest",
    "ChaosSpec",
    "AdmissionError",
    "AdmissionQueue",
    "AuditProbe",
    "ChurnRequest",
    "Cluster",
    "ClusterError",
    "ClusterMetrics",
    "ClusterSpec",
    "Completion",
    "EpochOutcome",
    "LatencySeries",
    "PolicySpec",
    "QueryRequest",
    "ServiceStopped",
    "ShedError",
    "Ticket",
]
