"""Deterministic journal replay: rebuild the coordinator at a boundary.

The coordinator journals its own state changes, so replay is a pure
fold over the record stream:

* ``genesis``      — journal format + spec fingerprint (refuses a
  different dialect, or a different cluster's journal);
* ``checkpoint``   — a full coordinator state capture: replay restarts
  from it (the journal compacts everything older away);
* ``churn``        — one admitted churn group's steps, in order (what
  :meth:`~repro.cluster.spec.ClusterSpec.build_monitor` re-applies to
  the restored — or factory-built — network);
* ``plan``         — an epoch began: the ledger settles, exactly where
  the live planner settled it;
* ``event``        — one recorded verdict event, seq-preserved into the
  store (subscribers — the ledger — fire in the original order) and
  folded into the reuse cache by the rule the live monitor applies:
  ok caches, violation evicts, reused and probe events leave it
  untouched;
* ``commit``       — a request group completed: the recovery boundary;
* ``adjudicate``   — a served adjudication request (judge rulings and
  ledger slashing re-derive deterministically).

Everything after the **last boundary record** (genesis, checkpoint,
commit, adjudicate) is an interrupted request group: recovery truncates
it from the journal and the client re-drives the request — which is why
the recovered trail is byte-identical to an uncrashed run's.

:class:`JournalReplayer` is deliberately *stateful and incremental*
(``feed`` one record at a time): the Hypothesis suite replays every
prefix/suffix split of a real journal and checks the state digest is
independent of where the split fell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.audit.monitor import Monitor, absorb_verdict
from repro.audit.policy import WorkItem
from repro.audit.store import EvidenceStore
from repro.journal.journal import Journal, JournalError, unpack

__all__ = [
    "BOUNDARY_TYPES",
    "JOURNAL_FORMAT",
    "JournalReplayer",
    "RecoveredState",
    "genesis_fingerprint",
    "policy_choosers",
    "recover_state",
]

#: what ``genesis`` and ``checkpoint`` records declare.  Format 2 is
#: the single-monitor coordinator's: no placement, no cache-mirror
#: decisions on events, no ``reshard``/``replace`` records.  (Format 1,
#: which carried all of those, was never stamped.)
#: 3: prefix-indexed RIBs inside the checkpointed network.
#: 4: monitored minimum rounds carry §3.8 batched disclosures.
JOURNAL_FORMAT = 4

#: record types after which the coordinator is between requests — the
#: points recovery may stop at; anything later is an interrupted group
BOUNDARY_TYPES = ("genesis", "checkpoint", "commit", "adjudicate")


def policy_choosers(spec) -> Dict[str, object]:
    """Policy name -> chooser ref, mirroring monitor registration
    (auto-names included) — what replay reconstructs reuse-cache
    fingerprints with."""
    mapping: Dict[str, object] = {}
    for counter, policy in enumerate(spec.policies):
        name = policy.options.get("name") or (
            f"{policy.asn}/{Monitor._describe(policy.spec)}#{counter}"
        )
        mapping[name] = policy.options.get("chooser")
    return mapping


def genesis_fingerprint(spec) -> Dict[str, object]:
    """What must match for a journal to belong to this spec.  The
    worker count is absent: the trail does not depend on it."""
    return {
        "format": JOURNAL_FORMAT,
        "key_bits": spec.key_bits,
        "seed": repr(spec.rng_seed),
        "policies": sorted(policy_choosers(spec)),
    }


def _check_format(found: object) -> None:
    if found != JOURNAL_FORMAT:
        raise JournalError(
            f"journal format {1 if found is None else found}, "
            f"this build reads {JOURNAL_FORMAT}"
        )


@dataclass
class RecoveredState:
    """Everything that rebuilds the coordinator's monitor at the last
    boundary (:meth:`~repro.cluster.spec.ClusterSpec.build_monitor`)."""

    store: EvidenceStore
    ledger: Optional[object]
    #: the reuse cache as of the boundary
    cache: Dict[tuple, tuple]
    epoch: int
    round_counter: int
    #: the network pickled at the last checkpoint (``None`` = rebuild
    #: from the spec's factory: no checkpoint has run yet)
    network: Optional[bytes]
    #: churn groups journaled since the network capture, in order
    churn_suffix: Tuple[Tuple[object, ...], ...]
    #: mutating requests committed before the boundary (the CLI skips
    #: this many script entries on re-drive)
    committed_requests: int
    replayed_records: int = 0
    truncated_records: int = 0


class JournalReplayer:
    """Fold journal records back into coordinator state, one at a time."""

    def __init__(self, spec, *, keystore=None) -> None:
        self.spec = spec
        self.keystore = (
            keystore if keystore is not None else spec.build_keystore()
        )
        self.choosers = policy_choosers(spec)
        self.store = EvidenceStore(
            self.keystore, max_events=spec.max_events
        )
        self.ledger = None
        if spec.ledger is not None:
            from repro.ledger import TrustLedger

            self.ledger = TrustLedger(spec.ledger).attach(self.store)
        self.cache: Dict[tuple, tuple] = {}
        self.epoch = 0
        self.round_counter = 0
        self.network: Optional[bytes] = None
        self.churn: List[Tuple[object, ...]] = []
        self.committed = 0
        self.replayed = 0

    # -- replay --------------------------------------------------------------

    def feed(self, seq: int, rtype: str, data: object) -> None:
        handler = getattr(self, f"_on_{rtype}", None)
        if handler is None:
            raise JournalError(f"unknown journal record type {rtype!r}")
        handler(seq, data)
        self.replayed += 1

    def _on_genesis(self, seq: int, data: object) -> None:
        _check_format(data.get("format"))
        expected = genesis_fingerprint(self.spec)
        for field_name in ("key_bits", "seed", "policies"):
            if data.get(field_name) != expected[field_name]:
                raise JournalError(
                    f"journal genesis mismatch on {field_name}: journal "
                    f"has {data.get(field_name)!r}, spec has "
                    f"{expected[field_name]!r} — refusing to recover a "
                    f"different cluster's journal"
                )

    def _on_checkpoint(self, seq: int, data: object) -> None:
        try:
            state = unpack(data)
        except Exception as exc:
            # e.g. a format-1 capture naming classes this build dropped
            raise JournalError(
                f"journal record {seq}: checkpoint does not load in "
                f"this build ({type(exc).__name__}: {exc})"
            ) from exc
        # compaction dropped the genesis, so the checkpoint speaks for
        # the journal's format
        _check_format(state.get("format"))
        self.store = EvidenceStore(
            self.keystore, max_events=self.spec.max_events
        )
        self.store.restore(state["store"])
        self.ledger = state["ledger"]
        if self.ledger is not None:
            self.ledger.attach(self.store)
        self.epoch, self.round_counter, cache = state["planning"]
        self.cache = dict(cache)
        self.network = state["network"]
        self.churn = []
        self.committed = state["committed"]

    def _on_churn(self, seq: int, data: object) -> None:
        self.churn.append(tuple(unpack(data["steps"])))

    def _on_plan(self, seq: int, data: object) -> None:
        if self.ledger is not None:
            self.ledger.settle()
        self.epoch = max(self.epoch, data["epoch"])

    def _on_event(self, seq: int, data: object) -> None:
        event = self.store.adopt(unpack(data["e"]))
        self.round_counter = max(self.round_counter, event.round)
        if event.epoch is not None and not event.reused:
            item = WorkItem(
                asn=event.asn,
                prefix=event.prefix,
                policy=event.policy,
                spec=event.spec,
                routes=event.routes,
            )
            absorb_verdict(
                self.cache,
                item,
                (item.fingerprint(), self.choosers.get(event.policy)),
                event,
            )

    def _on_commit(self, seq: int, data: object) -> None:
        self.committed += data["requests"]

    def _on_adjudicate(self, seq: int, data: object) -> None:
        # imported here: repro.cluster's package init imports this module
        # back, so a module-level import fails when repro.journal loads first
        from repro.cluster.requests import AdjudicateRequest, answer_adjudicate

        rulings = answer_adjudicate(
            self.store, AdjudicateRequest(seq=data["seq"])
        )
        if self.ledger is not None:
            self.ledger.fold_adjudications(rulings)
        self.committed += 1

    # -- results -------------------------------------------------------------

    def state(self) -> RecoveredState:
        return RecoveredState(
            store=self.store,
            ledger=self.ledger,
            cache=dict(self.cache),
            epoch=self.epoch,
            round_counter=self.round_counter,
            network=self.network,
            churn_suffix=tuple(self.churn),
            committed_requests=self.committed,
            replayed_records=self.replayed,
        )

    def digest(self) -> Dict[str, object]:
        """A comparable fingerprint of the replayed state — what the
        prefix-closure Hypothesis property checks for split-independence."""
        return {
            "events": [
                (
                    e.seq,
                    e.epoch,
                    e.round,
                    e.asn,
                    str(e.prefix),
                    e.policy,
                    e.reused,
                    e.report.verdicts,
                )
                for e in self.store.events()
            ],
            "evicted": self.store.evicted,
            "seq": self.store._seq,
            "cache": sorted(
                (str(key), entry[1].seq)
                for key, entry in self.cache.items()
            ),
            "epoch": self.epoch,
            "round": self.round_counter,
            "committed": self.committed,
            "churn_groups": len(self.churn),
            "trust": (
                sorted(self.ledger.trust_map().items())
                if self.ledger is not None
                else None
            ),
        }


def recover_state(
    spec, journal: Journal, *, keystore=None
) -> Optional[RecoveredState]:
    """Replay ``journal`` up to its last boundary record, truncating
    the interrupted suffix, and return the coordinator state — or
    ``None`` for a journal with no records (a fresh start)."""
    if not journal.records:
        return None
    boundary = None
    for seq, rtype, _data in journal.records:
        if rtype in BOUNDARY_TYPES:
            boundary = seq
    if boundary is None:
        # nothing ever committed: recover to the empty cluster
        boundary = journal.records[0][0] - 1
    replayer = JournalReplayer(spec, keystore=keystore)
    for seq, rtype, data in list(journal.records):
        if seq > boundary:
            break
        replayer.feed(seq, rtype, data)
    truncated = journal.truncate(boundary)
    state = replayer.state()
    state.truncated_records = truncated
    return state
