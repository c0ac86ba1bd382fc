"""The audit plane: policy-driven *continuous* promise verification.

The paper's operational claim (Section 3.1) is that promise verification
"would have to be performed for every single BGP update" — PVR is a
long-lived audit plane over a running network, not a one-shot
experiment.  This package is that plane:

* :class:`~repro.audit.monitor.Monitor` — attach to a
  :class:`~repro.bgp.network.BGPNetwork`, register promise *policies*
  per AS (any :class:`~repro.pvr.session.PromiseSpec` variant,
  per-neighbor overrides), and run verification *epochs* that coalesce
  BGP churn into bounded batches of work;
* the **incremental path** — an (AS, prefix, promise, recipient) tuple
  whose inputs are unchanged since its last verification is *reused*
  (zero crypto operations) instead of re-proved;
* :class:`~repro.audit.events.VerdictEvent` — the monitor's output
  stream, one event per audited tuple per epoch: a receipt (verdicts,
  evidence, a digest of what was sent) whose transcript
  :meth:`~repro.audit.monitor.Monitor.replay` re-derives;
* :class:`~repro.audit.store.EvidenceStore` — the queryable evidence
  trail (``by_asn``, ``by_prefix``, ``violations()``, judge
  adjudication on demand);
* :mod:`~repro.audit.wire` — the transport-coupled round executor every
  verification shares: one :class:`~repro.pvr.engine.VerificationSession`
  with its messages on the simulated links.

The churn workloads that drive it are registered in
:mod:`repro.cluster.workload`; ``python -m repro.cluster`` runs any of
them.
"""

from repro.audit import choosers
from repro.audit.events import (
    EpochOutcome,
    EpochReport,
    SliceStats,
    VerdictEvent,
)
from repro.audit.monitor import EpochPlan, Monitor, PlannedItem, ReplayError
from repro.audit.policy import AuditPolicy
from repro.audit.store import EvidenceStore
from repro.audit.wire import (
    AnnouncePayload,
    CommitPayload,
    RoundStats,
    ViewPayload,
    round_randomness,
    run_wire_round,
)

__all__ = [
    "AnnouncePayload",
    "AuditPolicy",
    "CommitPayload",
    "EpochOutcome",
    "EpochPlan",
    "EpochReport",
    "EvidenceStore",
    "Monitor",
    "PlannedItem",
    "ReplayError",
    "RoundStats",
    "SliceStats",
    "VerdictEvent",
    "ViewPayload",
    "choosers",
    "round_randomness",
    "run_wire_round",
]
