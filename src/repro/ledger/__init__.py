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
* levels fall only through slashing — and slashing only through the
  challenge desk (:mod:`repro.ledger.challenge`), which routes disputes
  through the third-party judge via ``EvidenceStore.adjudicate``;
* trust feeds back (:mod:`repro.ledger.feedback`): high-trust ASes get
  deterministically *sampled* verification
  (:class:`VerificationIntensity`, rate 1.0 = byte-identical to no
  ledger at all).

``python -m repro.ledger`` runs a churn scenario under a ledger-enabled
monitor and prints the ladder's life: promotions, challenges, slashes,
and the verified hash chain.
"""

from repro.ledger.challenge import ChallengeOutcome, run_challenge
from repro.ledger.feedback import VerificationIntensity
from repro.ledger.history import (
    GENESIS,
    TransitionHistory,
    TransitionRecord,
)
from repro.ledger.ledger import ASRecord, TrustLedger
from repro.ledger.levels import LedgerPolicy, TrustLevel

__all__ = [
    "ASRecord",
    "ChallengeOutcome",
    "GENESIS",
    "LedgerPolicy",
    "TransitionHistory",
    "TransitionRecord",
    "TrustLedger",
    "TrustLevel",
    "VerificationIntensity",
    "run_challenge",
]
