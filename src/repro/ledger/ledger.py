"""The per-AS trust ledger: evidence in, trust levels out.

A :class:`TrustLedger` subscribes to an
:class:`~repro.audit.store.EvidenceStore` (:meth:`TrustLedger.attach`)
and folds every verdict event into per-AS accounting:

* epoch events accumulate into per-epoch buckets; a bucket is **settled**
  when a later epoch's events arrive (or on an explicit
  :meth:`TrustLedger.settle`), at which point the promotion rule runs —
  a violation-free bucket with at least ``min_coverage`` events extends
  the AS's clean streak, a bucket containing a violation resets it, and
  a long enough streak promotes the AS one rung, citing the settled
  bucket's event seqs in the append-only
  :class:`~repro.ledger.history.TransitionHistory`;
* out-of-epoch events (Byzantine probes,
  :meth:`~repro.audit.monitor.Monitor.audit_once`) count into the
  durable totals immediately; a probe violation resets the streak but
  — like every unadjudicated violation — never demotes;
* demotion happens in exactly one place: :meth:`TrustLedger.slash`,
  reached only through :meth:`TrustLedger.fold_adjudications`, which
  takes the third-party judge's rulings
  (:meth:`~repro.audit.store.EvidenceStore.adjudicate`) and slashes
  only for a confirmed violation.  On a cluster the journaled
  ``AdjudicateRequest`` is the one caller.  Slashing is monotone within
  an epoch: once an AS is slashed at epoch E, no promotion settles at
  an epoch <= E.

The ledger's durable counters survive evidence-store eviction (the
store's ``on_evict`` callback) and the whole object pickles — minus its
live store subscription — so a cluster coordinator can checkpoint it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ledger.history import TransitionHistory
from repro.ledger.levels import LedgerPolicy, TrustLevel

__all__ = ["ASRecord", "TrustLedger", "confirmed"]

#: transition rule names, as recorded in history rows
RULE_PROMOTE = "clean-streak"
RULE_SLASH = "slash:adjudicated"


def confirmed(adjudication) -> bool:
    """Whether a judge's ruling slashes: some transferable evidence
    validated, or some complaint was upheld.  A dismissed accusation
    changes nothing."""
    return bool(adjudication.guilty() or adjudication.upheld_complaints())


@dataclass
class ASRecord:
    """One AS's durable accountability counters."""

    asn: str
    level: TrustLevel
    streak: int = 0
    clean_events: int = 0
    violation_events: int = 0
    slashes: int = 0
    evicted_events: int = 0
    last_settled_epoch: Optional[int] = None
    slashed_at_epoch: Optional[int] = None

    def describe(self) -> Dict[str, object]:
        return {
            "level": self.level.name,
            "streak": self.streak,
            "clean_events": self.clean_events,
            "violation_events": self.violation_events,
            "slashes": self.slashes,
            "evicted_events": self.evicted_events,
            "last_settled_epoch": self.last_settled_epoch,
            "slashed_at_epoch": self.slashed_at_epoch,
        }


@dataclass
class _Bucket:
    """One AS's not-yet-settled evidence within one epoch."""

    clean: int = 0
    violations: int = 0
    seqs: List[int] = field(default_factory=list)


SCHEMA = "repro.ledger/snapshot"
SCHEMA_VERSION = 2


class TrustLedger:
    """Evidence-gated trust levels with slashing-style demotion."""

    def __init__(
        self,
        policy: Optional[LedgerPolicy] = None,
        *,
        store=None,
    ) -> None:
        self.policy = policy if policy is not None else LedgerPolicy()
        self.history = TransitionHistory()
        self._records: Dict[str, ASRecord] = {}
        # epoch -> asn -> bucket, settled in epoch order
        self._open: Dict[int, Dict[str, _Bucket]] = {}
        self._max_epoch = 0
        # violation seq -> (asn, epoch): the attribution index
        # fold_adjudications resolves rulings through
        self._violation_index: Dict[int, Tuple[str, Optional[int]]] = {}
        self._slashed_seqs: set = set()
        self._store = None
        if store is not None:
            self.attach(store)

    # -- wiring --------------------------------------------------------------

    def attach(self, store) -> "TrustLedger":
        """Subscribe to ``store``: every recorded event is observed,
        and evicted events are folded into the durable counters."""
        if self._store is not None:
            raise RuntimeError("ledger is already attached to a store")
        self._store = store
        store.subscribe(self.observe)
        store.on_evict(self._note_eviction)
        return self

    @property
    def store(self):
        return self._store

    def __getstate__(self):
        # the live store (with its subscriber closures) stays behind:
        # a pickled ledger is a consistent snapshot of trust state, not
        # a live subscription
        state = dict(self.__dict__)
        state["_store"] = None
        return state

    # -- ingestion -----------------------------------------------------------

    def observe(self, event) -> None:
        """Fold one verdict event (duck-typed: ``seq``/``epoch``/
        ``asn``/``violation_found()``) into the accounting."""
        violation = event.violation_found()
        if violation:
            self._violation_index[event.seq] = (event.asn, event.epoch)
        if event.epoch is None:
            # out-of-epoch audit: counts immediately, never toward a
            # promotion streak — but a violation interrupts it
            record = self._record(event.asn)
            if violation:
                record.violation_events += 1
                record.streak = 0
            else:
                record.clean_events += 1
            return
        if event.epoch > self._max_epoch:
            # a new epoch began: everything older is complete
            self.settle(before=event.epoch)
            self._max_epoch = event.epoch
        bucket = self._open.setdefault(event.epoch, {}).setdefault(
            event.asn, _Bucket()
        )
        if violation:
            bucket.violations += 1
        else:
            bucket.clean += 1
            bucket.seqs.append(event.seq)

    def _note_eviction(self, event) -> None:
        """The store dropped a clean event under its ``max_events``
        bound; the totals above already counted it — just track that the
        raw trail no longer holds it."""
        self._record(event.asn).evicted_events += 1

    # -- settling and promotion ----------------------------------------------

    def settle(self, before: Optional[int] = None) -> int:
        """Close every open epoch bucket older than ``before`` (all of
        them when ``None``), running the promotion rule per epoch in
        ascending order.  Returns the number of epochs settled.  Called
        automatically when a newer epoch's events arrive, and by a
        cluster's served adjudication before its rulings fold — rules
        a live coordinator and a journal replay both follow; a reader
        that wants the still-open last epoch counted settles it
        explicitly."""
        settled = 0
        for epoch in sorted(self._open):
            if before is not None and epoch >= before:
                break
            for asn in sorted(self._open[epoch]):
                self._settle_bucket(asn, epoch, self._open[epoch][asn])
            del self._open[epoch]
            settled += 1
        return settled

    def _settle_bucket(self, asn: str, epoch: int, bucket: _Bucket) -> None:
        record = self._record(asn)
        record.last_settled_epoch = epoch
        record.clean_events += bucket.clean
        record.violation_events += bucket.violations
        if bucket.violations:
            # unadjudicated violations interrupt the streak — demotion
            # waits for the judge
            record.streak = 0
            return
        if bucket.clean < self.policy.min_coverage:
            # not enough evidence this epoch: the streak neither grows
            # nor resets — levels never move on absence of evidence
            return
        record.streak += 1
        if record.streak < self.policy.clean_epochs_to_promote:
            return
        if record.level >= TrustLevel.TRUSTED:
            record.streak = 0
            return
        if (
            record.slashed_at_epoch is not None
            and epoch <= record.slashed_at_epoch
        ):
            # monotone within an epoch: a slash at epoch E wins over
            # any promotion settling at or before E
            record.streak = 0
            return
        promoted = record.level.next_up()
        self.history.append(
            asn=asn,
            epoch=epoch,
            from_level=record.level,
            to_level=promoted,
            rule=RULE_PROMOTE,
            evidence_seqs=tuple(bucket.seqs),
        )
        record.level = promoted
        record.streak = 0

    # -- slashing -------------------------------------------------------------

    def slash(
        self,
        asn: str,
        *,
        evidence_seqs: Tuple[int, ...],
        epoch: Optional[int] = None,
        rule: str = RULE_SLASH,
    ) -> Optional[object]:
        """Demote ``asn`` to the policy's ``slash_to`` level.

        Only :meth:`fold_adjudications` calls this, and only with the
        seqs of judge-confirmed violations — ``evidence_seqs`` must
        be non-empty, so even a slash is evidence-gated.  Returns the
        history record (``None`` when the AS already sits at or below
        the slash floor — the streak and counters still take the hit).
        """
        if not evidence_seqs:
            raise ValueError("slash requires adjudicated evidence seqs")
        record = self._record(asn)
        at_epoch = epoch if epoch is not None else (self._max_epoch or None)
        record.streak = 0
        record.slashes += 1
        if at_epoch is not None:
            record.slashed_at_epoch = max(
                at_epoch, record.slashed_at_epoch or 0
            )
        if record.level <= self.policy.slash_to:
            return None
        transition = self.history.append(
            asn=asn,
            epoch=at_epoch,
            from_level=record.level,
            to_level=self.policy.slash_to,
            rule=rule,
            evidence_seqs=tuple(evidence_seqs),
        )
        record.level = self.policy.slash_to
        return transition

    def fold_adjudications(self, rulings: Dict[int, object]) -> List[object]:
        """Apply a batch of judge rulings (``{seq: Adjudication}``, the
        :meth:`~repro.audit.store.EvidenceStore.adjudicate` shape).

        Every *confirmed* ruling — validated transferable evidence or an
        upheld complaint — slashes the recorded violator, once per seq.
        Dismissed accusations change nothing.  Returns the transition
        records appended."""
        transitions = []
        for seq in sorted(rulings):
            if seq in self._slashed_seqs:
                continue
            if not confirmed(rulings[seq]):
                continue
            attribution = self._violation_index.get(seq)
            if attribution is None:
                continue  # not a violation this ledger observed
            self._slashed_seqs.add(seq)
            asn, epoch = attribution
            transition = self.slash(
                asn, evidence_seqs=(seq,), epoch=epoch
            )
            if transition is not None:
                transitions.append(transition)
        return transitions

    # -- queries --------------------------------------------------------------

    def _record(self, asn: str) -> ASRecord:
        record = self._records.get(asn)
        if record is None:
            record = ASRecord(asn=asn, level=self.policy.initial_level)
            self._records[asn] = record
        return record

    def trust_level(self, asn: str) -> TrustLevel:
        record = self._records.get(asn)
        return record.level if record is not None else (
            self.policy.initial_level
        )

    def trust_map(self) -> Dict[str, TrustLevel]:
        """The picklable per-AS level snapshot."""
        return {
            asn: record.level
            for asn, record in sorted(self._records.items())
        }

    def records(self) -> Tuple[ASRecord, ...]:
        return tuple(
            self._records[asn] for asn in sorted(self._records)
        )

    def snapshot(self) -> Dict[str, object]:
        """The schema-versioned, JSON-serializable ledger document
        (``"ledger"`` in the cluster snapshot that
        ``python -m repro.cluster --json`` writes)."""
        import json

        snapshot = {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "policy": self.policy.describe(),
            "current_epoch": self._max_epoch,
            "open_epochs": sorted(self._open),
            "levels": {
                asn: record.level.name
                for asn, record in sorted(self._records.items())
            },
            "records": {
                asn: record.describe()
                for asn, record in sorted(self._records.items())
            },
            "history": self.history.describe(),
            "transitions": [
                {
                    "index": r.index,
                    "asn": r.asn,
                    "epoch": r.epoch,
                    "from": r.from_level.name,
                    "to": r.to_level.name,
                    "rule": r.rule,
                    "evidence_seqs": list(r.evidence_seqs),
                    "digest": r.digest,
                }
                for r in self.history.records()
            ],
        }
        json.dumps(snapshot)  # must always serialize; fail loudly here
        return snapshot
