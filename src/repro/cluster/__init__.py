"""``repro.cluster``: the serving substrate, and its durable host.

One coordinator class turns churn into verdicts, and it is written
once, here: :class:`~repro.cluster.cluster.Cluster` applies a coalesced
churn group to the one :class:`~repro.audit.monitor.Monitor`, plans
each epoch centrally and deals the plan's fresh rounds to **one pool**
of stateless workers (:mod:`repro.cluster.pool`,
:mod:`repro.cluster.worker`) — a round is a pure function of what the
plan fixed, so workers hold keys and nothing else — then folds the
results back in plan order, byte-identical to an unsharded monitor.
A served ``AdjudicateRequest`` is the one path from a recorded
violation to a ledger slash.  The coordinator has two doors:

* :class:`~repro.cluster.cluster.Cluster` itself, built from a
  declarative :class:`~repro.cluster.spec.ClusterSpec` — the
  synchronous door; failure injectable
  (:class:`~repro.cluster.spec.ChaosSpec`) and, with
  ``ClusterSpec.journal`` set, durable: it write-ahead-journals its
  state changes (:mod:`repro.journal`) and a coordinator killed mid-run
  restarts at the last commit boundary with a byte-identical trail,
  the same rulings and the same trust ladder;
* :class:`~repro.serve.service.VerificationService` — the asyncio
  door: futures and a dispatcher task over a private ``Cluster``.

Either door feeds the coordinator's one admission plane
(:class:`~repro.cluster.admission.AdmissionQueue`: writes enter a
bounded FIFO or are refused at the door, adjacent queued churn requests
coalesce into one epoch sequence; reads never queue — they are answered
at the door from the trail as of the last committed write group) and
reads its one metrics ledger
(:class:`~repro.cluster.metrics.ClusterMetrics`).
A worker that crashes, closes its pipe or goes silent while it owes
results costs a retry of its unfinished rounds on a survivor and a
fresh fork — never the epoch (a second death in it is fatal).

Run ``python -m repro.cluster`` for the one churn CLI: it drives any
registered workload through N workers with the ledger on, optionally
killing one, closes with a served adjudication, and checks parity
against the unsharded reference.
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
