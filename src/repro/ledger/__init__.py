"""repro.ledger — the evidence-gated accountability ledger.

The paper's verification plane produces a per-AS evidence trail; this
package makes the trail *matter*.  A :class:`TrustLedger` subscribes to
an :class:`~repro.audit.store.EvidenceStore` and maintains an explicit
trust ladder per AS (:class:`TrustLevel`:
``QUARANTINED < PROBATIONARY < STANDARD < TRUSTED``):

* levels rise only through logged clean-audit evidence
  (``clean_epochs_to_promote`` consecutive covered epochs), every
  transition an append-only, hash-chained
  :class:`~repro.ledger.history.TransitionHistory` row;
* levels fall only through slashing — and slashing only through
  :meth:`TrustLedger.fold_adjudications`, which takes the third-party
  judge's rulings (``EvidenceStore.adjudicate``); on a cluster the one
  caller is the queued, journaled ``AdjudicateRequest``.

The ledger only listens: nothing the audit plane plans or verifies
depends on a trust level, so every deviation on a monitored tuple is
still checked (the paper's Detection property).

``python -m repro.cluster`` runs every churn workload with a ledger and
a closing adjudication, and prints the ladder's life: promotions,
adjudicated slashes and the verified hash chain.
"""

from repro.ledger.history import (
    GENESIS,
    TransitionHistory,
    TransitionRecord,
)
from repro.ledger.ledger import ASRecord, TrustLedger, confirmed
from repro.ledger.levels import LedgerPolicy, TrustLevel

__all__ = [
    "ASRecord",
    "GENESIS",
    "LedgerPolicy",
    "TransitionHistory",
    "TransitionRecord",
    "TrustLedger",
    "TrustLevel",
    "confirmed",
]
