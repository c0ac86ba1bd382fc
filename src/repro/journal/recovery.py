"""Deterministic journal replay: rebuild the coordinator at a boundary.

The coordinator journals its own state changes, so replay is a pure
fold over the record stream:

* ``genesis``      — journal format + spec fingerprint (refuses a
  different dialect, or a different cluster's journal) + the
  coordinator's key table, which replay adopts before anything else;
* ``checkpoint``   — the coordinator's state at a boundary: planning
  state, ledger, pickled network, committed count and the store's
  counters.  Appended on the cadence, it carries no events — the
  ``event`` records before it are the trail, and replay checks them
  against its counters; a compaction (the journal's head, what every
  checkpoint of a ``max_events`` store is) carries the whole store and,
  in the genesis's place, the key table;
* ``churn``        — one admitted churn group's steps, in order (what
  :meth:`~repro.cluster.spec.ClusterSpec.build_monitor` re-applies to
  the restored — or factory-built — network);
* ``event``        — one recorded verdict event, seq-preserved into the
  store (subscribers — the ledger — fire in the original order) and
  folded into the reuse cache by the rule the live monitor applies:
  ok caches, violation evicts, reused and probe events leave it
  untouched;
* ``commit``       — a request group completed: the recovery boundary.
  It carries the epoch counter, which the events cannot rebuild: an
  epoch may plan nothing and record no event;
* ``adjudicate``   — a served ``AdjudicateRequest``, the one path from
  a violation to a slash: the judge re-rules from the seq and the ledger
  re-folds the rulings, so a recovered coordinator holds the rulings,
  slashes and history head the live one did (every replayed event's
  parties hold their keys first, checkpointed ones included).

Everything after the **last boundary record** (genesis, checkpoint,
commit, adjudicate) is an interrupted request group: recovery truncates
it from the journal and the client re-drives the request — which is why
the recovered trail is byte-identical to an uncrashed run's.  Before the
last checkpoint, :func:`recover_state` replays only the trail — the
head and the ``event`` records, adopted into a store no ledger or reuse
cache watches: the checkpoint holds everything else, so the judge never
re-rules an adjudication it covers.

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
from repro.journal.journal import Journal, JournalError, pack, unpack

__all__ = [
    "BOUNDARY_TYPES",
    "JOURNAL_FORMAT",
    "JournalReplayer",
    "RecoveredState",
    "genesis",
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
#: 5: the prover's round messages are leaves under one batch root.
#: 6: a checkpoint may omit the trail (the event records carry it).
#: 7: the head (genesis, or a compacting checkpoint) carries the key
#: table, and recovery makes no key the coordinator had made.
#: 8: no ``plan`` record; the ``commit`` record carries the epoch.
JOURNAL_FORMAT = 8

#: record types after which the coordinator is between requests — the
#: points recovery may stop at; anything later is an interrupted group
BOUNDARY_TYPES = ("genesis", "checkpoint", "commit", "adjudicate")

#: record types that carry the trail — all a checkpoint's predecessors
#: replay (``JournalReplayer.trail_until``)
TRAIL_TYPES = ("genesis", "checkpoint", "event")


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


def genesis(spec, keystore) -> Dict[str, object]:
    """The journal's first record: :func:`genesis_fingerprint` plus
    ``keystore``'s table.  The seed it names already fixes every key,
    so the table adds no secret — it saves a recovery re-making them."""
    return {**genesis_fingerprint(spec), "keys": pack(keystore.table())}


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

    def digest(self) -> Dict[str, object]:
        """A comparable fingerprint of the state — what the replay
        properties check for split- and skip-independence."""
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
            "committed": self.committed_requests,
            "churn_groups": len(self.churn_suffix),
            "trust": (
                sorted(self.ledger.trust_map().items())
                if self.ledger is not None
                else None
            ),
        }


class JournalReplayer:
    """Fold journal records back into coordinator state, one at a time."""

    def __init__(self, spec, *, keystore=None, trail_until: int = 0) -> None:
        self.spec = spec
        #: the seq of a checkpoint that supersedes every record before
        #: it: of those only the trail replays (no ledger, reuse cache
        #: or judge — the checkpoint carries them).  0 folds every record
        self.trail_until = trail_until
        self.keystore = (
            keystore if keystore is not None else spec.build_keystore()
        )
        self.choosers = policy_choosers(spec)
        self.store = EvidenceStore(
            self.keystore, max_events=spec.max_events
        )
        self.ledger = None
        if spec.ledger is not None and not trail_until:
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
        if seq < self.trail_until and rtype not in TRAIL_TYPES:
            return  # superseded: its effect is in the checkpoint
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
        self.keystore.adopt(unpack(data["keys"]))

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
        captured = state["store"]
        compacted = "events" in captured
        if compacted:
            # a compaction: the whole store, and the journal's head
            self.keystore.adopt(state["keys"])
            for event in captured["events"]:
                self._register(event)
        else:
            # appended: the event records before it are the trail
            for field_name, value in self.store.counters().items():
                if value != captured[field_name]:
                    raise JournalError(
                        f"journal record {seq}: checkpoint has store "
                        f"{field_name} {captured[field_name]}, the event "
                        f"records replay to {value}"
                    )
        if seq < self.trail_until:
            # superseded by a later checkpoint: only its trail counts
            if compacted:
                self.store.restore(captured)
            return
        if not compacted:
            captured = self.store.checkpoint_state()
        # a fresh store: the checkpointed ledger replaces the one the
        # replayed store was feeding
        self.store = EvidenceStore(
            self.keystore, max_events=self.spec.max_events
        )
        self.store.restore(captured)
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

    def _register(self, event) -> None:
        """Make sure ``event``'s parties hold keys: a judge holding no
        key rules every signature invalid.  The journal's head carried
        the coordinator's key table, so this is a lookup; only a party
        the coordinator first registered after the head (new after
        churn) has its key derived again, identically, from the seed."""
        self.keystore.register_all(event.spec.parties)

    def _on_event(self, seq: int, data: object) -> None:
        event = self.store.adopt(unpack(data["e"]))
        self._register(event)
        if seq < self.trail_until:
            return  # the checkpoint carries the counters and the cache
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
        self.epoch = data["epoch"]

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
        """:meth:`RecoveredState.digest` of the replayed state."""
        return self.state().digest()


def recover_state(
    spec, journal: Journal, *, keystore=None
) -> Optional[RecoveredState]:
    """Replay ``journal`` up to its last boundary record, truncating
    the interrupted suffix, and return the coordinator state — or
    ``None`` for a journal with no records (a fresh start).  A journal
    headed by anything but a ``genesis`` or ``checkpoint`` carries no
    format to check and is refused.  Before the last checkpoint only
    the trail replays (``trail_until``); the journal's records are
    released afterwards."""
    records = journal.records
    if not records:
        return None
    head_seq, head_type, _data = records[0]
    if head_type not in ("genesis", "checkpoint"):
        raise JournalError(
            f"journal {journal.directory} starts with record {head_seq} "
            f"of type {head_type!r}, not a genesis or checkpoint — "
            f"refusing to recover a journal whose format is unknown"
        )
    boundary = max(
        seq for seq, rtype, _data in records if rtype in BOUNDARY_TYPES
    )
    last_checkpoint = max(
        (seq for seq, rtype, _data in records if rtype == "checkpoint"),
        default=0,
    )
    replayer = JournalReplayer(
        spec, keystore=keystore, trail_until=last_checkpoint
    )
    for seq, rtype, data in records:
        if seq > boundary:
            break
        replayer.feed(seq, rtype, data)
    truncated = journal.truncate(boundary)
    # released before the coordinator forks its pool
    journal.records = []
    state = replayer.state()
    state.truncated_records = truncated
    return state
