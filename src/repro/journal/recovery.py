"""Deterministic journal replay: rebuild the coordinator at a boundary.

The coordinator journals at its fold seams, so replay is a pure fold
over the record stream:

* ``genesis``      — spec fingerprint (refuses a mismatched restart);
* ``checkpoint``   — a full coordinator state capture: replay restarts
  from it (the journal compacts everything older away);
* ``churn``        — one admitted churn group's steps, in churn-log
  order (the replica fast-forward a recovery spawn replays);
* ``plan``         — an epoch began: the ledger settles (exactly what
  the live coordinator does before broadcasting the epoch command) and
  the pending-invalidation slate resets;
* ``event``        — one folded slice event, seq-preserved into the
  store (subscribers — the ledger — fire in the original order) and
  applied to the cache mirror; the journaled mirror decision is
  cross-checked against the replayed one;
* ``commit``       — a request group completed: the recovery boundary;
* ``adjudicate``   — a served adjudication request (judge rulings and
  ledger slashing re-derive deterministically);
* ``reshard``      — the placement changed;
* ``replace``      — informational (a rolling replacement ran).

Everything after the **last boundary record** (genesis, checkpoint,
commit, adjudicate, reshard) is an interrupted request group: recovery
truncates it from the journal and the client re-drives the request —
which is why the recovered trail is byte-identical to an uncrashed
run's.

:class:`JournalReplayer` is deliberately *stateful and incremental*
(``feed`` one record at a time): the Hypothesis suite replays every
prefix/suffix split of a real journal and checks the state digest is
independent of where the split fell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.journal.journal import Journal, JournalError, unpack

__all__ = [
    "BOUNDARY_TYPES",
    "JournalReplayer",
    "RecoveredState",
    "genesis_fingerprint",
    "mirror_note",
    "policy_choosers",
    "recover_state",
]

#: record types after which the coordinator is between requests — the
#: points recovery may stop at; anything later is an interrupted group
BOUNDARY_TYPES = ("genesis", "checkpoint", "commit", "adjudicate", "reshard")


def policy_choosers(spec) -> Dict[str, object]:
    """Policy name -> chooser ref, mirroring monitor registration
    (auto-names included) — the mapping both the coordinator's cache
    mirror and journal replay reconstruct fingerprints with."""
    mapping: Dict[str, object] = {}
    for counter, policy in enumerate(spec.policies):
        name = policy.options.get("name") or (
            f"{policy.asn}/{Monitor._describe(policy.spec)}#{counter}"
        )
        mapping[name] = policy.options.get("chooser")
    return mapping


def mirror_note(
    mirror: Dict[tuple, tuple], event, choosers: Dict[str, object]
) -> Optional[str]:
    """Apply one folded event to a commitment-cache mirror exactly as
    each owner maintains its own cache: a fresh ok verdict caches
    (``"set"``), a fresh violation evicts (``"pop"``), a reused event
    leaves the entry untouched (``None``).  Shared by the live
    coordinator and journal replay so the two can never drift."""
    if event.reused:
        return None
    key = (event.asn, event.prefix, event.policy, event.spec.recipients)
    if event.ok():
        fingerprint = (
            (
                event.spec,
                tuple(sorted(event.routes.items(), key=lambda kv: kv[0])),
            ),
            choosers.get(event.policy),
        )
        mirror[key] = (fingerprint, event)
        return "set"
    mirror.pop(key, None)
    return "pop"


def genesis_fingerprint(spec) -> Dict[str, object]:
    """What must match for a journal to belong to this spec."""
    return {
        "key_bits": spec.key_bits,
        "seed": repr(spec.rng_seed),
        "policies": sorted(policy_choosers(spec)),
        "workers": spec.workers,
    }


@dataclass
class RecoveredState:
    """Everything a restarted coordinator adopts from replay."""

    store: EvidenceStore
    ledger: Optional[object]
    mirror: Dict[tuple, tuple]
    seen_pairs: set
    invalidations: List[tuple]
    epoch: int
    round_counter: int
    placement: Optional[object]
    #: the donor replica pickled at the last checkpoint (``None`` =
    #: rebuild from the spec's factory: no checkpoint has run yet)
    network: Optional[bytes]
    #: churn groups journaled since the network capture, in order —
    #: exactly the fast-forward suffix a recovery spawn replays
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
        self.mirror: Dict[tuple, tuple] = {}
        self.seen_pairs: set = set()
        self.invalidations: List[tuple] = []
        self.epoch = 0
        self.round_counter = 0
        self.placement = None
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
        state = unpack(data)
        self.store = EvidenceStore(
            self.keystore, max_events=self.spec.max_events
        )
        self.store.restore(state["store"])
        self.ledger = state["ledger"]
        if self.ledger is not None:
            self.ledger.attach(self.store)
        self.mirror = dict(state["mirror"])
        self.seen_pairs = set(state["seen"])
        self.invalidations = list(state["invalidations"])
        self.epoch = state["epoch"]
        self.round_counter = state["round"]
        self.placement = state["placement"]
        self.network = state["network"]
        self.churn = []
        self.committed = state["committed"]

    def _on_churn(self, seq: int, data: object) -> None:
        self.churn.append(tuple(unpack(data["steps"])))

    def _on_plan(self, seq: int, data: object) -> None:
        if self.ledger is not None:
            self.ledger.settle()
        self.invalidations = []
        self.epoch = max(self.epoch, data["epoch"])

    def _on_event(self, seq: int, data: object) -> None:
        event = unpack(data["e"])
        stored = self.store.adopt(event)
        if stored.epoch is not None:
            self.epoch = max(self.epoch, stored.epoch)
        if stored.round:
            self.round_counter = max(self.round_counter, stored.round)
        if not data.get("probe"):
            self.seen_pairs.add((stored.asn, stored.prefix))
            op = mirror_note(self.mirror, stored, self.choosers)
            if op != data.get("m"):
                raise JournalError(
                    f"journal record {seq}: replayed mirror decision "
                    f"{op!r} diverges from the journaled {data.get('m')!r}"
                )
            if not stored.reused and not stored.ok():
                self.invalidations.append(
                    (
                        stored.asn,
                        stored.prefix,
                        stored.policy,
                        stored.spec.recipients,
                    )
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

    def _on_reshard(self, seq: int, data: object) -> None:
        self.placement = unpack(data["placement"])

    def _on_replace(self, seq: int, data: object) -> None:
        pass  # informational: the replacement worker's state is derived

    # -- results -------------------------------------------------------------

    def state(self) -> RecoveredState:
        return RecoveredState(
            store=self.store,
            ledger=self.ledger,
            mirror=dict(self.mirror),
            seen_pairs=set(self.seen_pairs),
            invalidations=list(self.invalidations),
            epoch=self.epoch,
            round_counter=self.round_counter,
            placement=self.placement,
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
            "mirror": sorted(
                (str(key), entry[1].seq)
                for key, entry in self.mirror.items()
            ),
            "seen": sorted(
                (asn, str(prefix)) for asn, prefix in self.seen_pairs
            ),
            "invalidations": [
                (asn, str(prefix), policy, recipients)
                for asn, prefix, policy, recipients in self.invalidations
            ],
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
