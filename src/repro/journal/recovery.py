"""Journal recovery: restore the last checkpoint, return the commands after it.

The coordinator journals the commands it serves, not what they record:

* ``genesis``      — journal format + spec fingerprint (refuses a
  different dialect, or a different cluster's journal) + the
  coordinator's key table, which recovery adopts before anything else;
* ``churn``        — one coalesced churn group, whole (every request's
  steps, marks and probes), appended before any of it is applied;
* ``commit``       — that group completed: its request count and the
  epoch counter;
* ``adjudicate``   — a served ``AdjudicateRequest``'s seq, the one path
  from a violation to a slash;
* ``checkpoint``   — the coordinator's state at a boundary (planning
  state, ledger, pickled network, key table, committed count, store
  counters) plus the events recorded since the previous checkpoint, as
  one blob.  It never carries the unbounded store; under ``max_events``
  every checkpoint carries the whole (bounded) store instead and
  compacts the file to itself, so it heads the journal.

:func:`recover_state` concatenates the checkpoints' events into the
store, restores the last checkpoint's ledger, network and planning
state, and returns the commands committed after it.
:class:`~repro.cluster.cluster.Cluster` re-serves each of them through
the code that served it live, before its journal is attached — so the
recording rules live in one place, :mod:`repro.audit.monitor`, and the
recovered trail is byte-identical to an uncrashed run's.  With no
checkpoint (``journal_checkpoint_every=0``) that is every group since
the genesis: the checkpoint cadence is what bounds the re-serve.

Everything after the **last boundary record** (genesis, checkpoint,
commit, adjudicate) is an interrupted request group: recovery truncates
it from the journal and the client re-drives the request.  A group
that failed live left a churn record with no commit; the coordinator
checkpoints before it reports the failure, so a journal in which
another command follows such a record is refused.

:class:`JournalReplayer` is deliberately *stateful and incremental*
(``feed`` one record at a time): the Hypothesis suite feeds every
prefix/suffix split of a real journal and checks the state digest is
independent of where the split fell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.journal.journal import Journal, JournalError, pack, unpack

__all__ = [
    "BOUNDARY_TYPES",
    "JOURNAL_FORMAT",
    "JournalReplayer",
    "RecoveredState",
    "genesis",
    "genesis_fingerprint",
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
#: 9: a command log: no ``event`` record, a ``churn`` record carries the
#: whole group, and a checkpoint carries its interval's events.
#: 10: the checkpointed network prices bytes only inside a metered round
#: (a format-9 network unpickles without its meter slot).
#: 11: a recorded event is a receipt: its report carries no transcript,
#: and its stats carry the round's wire digest.
JOURNAL_FORMAT = 11

#: record types after which the coordinator is between requests — the
#: points recovery may stop at; anything later is an interrupted group
BOUNDARY_TYPES = ("genesis", "checkpoint", "commit", "adjudicate")


def genesis_fingerprint(spec) -> Dict[str, object]:
    """What must match for a journal to belong to this spec.  The
    worker count is absent: the trail does not depend on it."""
    return {
        "format": JOURNAL_FORMAT,
        "key_bits": spec.key_bits,
        "seed": repr(spec.rng_seed),
        # policy names as the monitor registers them, auto-names included
        "policies": sorted(
            policy.options.get("name")
            or f"{policy.asn}/{Monitor._describe(policy.spec)}#{counter}"
            for counter, policy in enumerate(spec.policies)
        ),
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


def _load(seq: int, rtype: str, text: str) -> object:
    try:
        return unpack(text)
    except Exception as exc:
        # e.g. a capture naming classes this build dropped
        raise JournalError(
            f"journal record {seq}: {rtype} does not load in this build "
            f"({type(exc).__name__}: {exc})"
        ) from exc


@dataclass
class RecoveredState:
    """The coordinator at its last checkpoint
    (:meth:`~repro.cluster.spec.ClusterSpec.build_monitor` rebuilds the
    monitor from it) and the commands to re-serve on top."""

    store: EvidenceStore
    ledger: Optional[object]
    #: the checkpointed :meth:`~repro.audit.monitor.Monitor.planning_state`
    #: (``None``: no checkpoint, the monitor starts fresh)
    planning: Optional[tuple]
    #: the network pickled at the last checkpoint (``None`` = rebuild
    #: from the spec's factory)
    network: Optional[bytes]
    #: seq of the checkpoint restored (0: none)
    checkpoint: int
    #: ``(seq, requests)`` committed after it, in order: a churn group
    #: or a lone ``AdjudicateRequest``, as ``Cluster`` served it
    commands: Tuple[Tuple[int, tuple], ...]
    #: mutating requests committed at the checkpoint (re-serving the
    #: commands adds theirs)
    committed_requests: int
    replayed_records: int = 0
    truncated_records: int = 0

    def digest(self) -> Dict[str, object]:
        """A comparable fingerprint of the state — what the replay
        properties check for split-independence."""
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
            "counters": self.store.counters(),
            "checkpoint": self.checkpoint,
            "commands": self.commands,
            "committed": self.committed_requests,
            "trust": (
                sorted(self.ledger.trust_map().items())
                if self.ledger is not None
                else None
            ),
        }


class JournalReplayer:
    """Fold journal records into a recovery point, one at a time."""

    def __init__(self, spec, *, keystore=None) -> None:
        self.spec = spec
        self.keystore = (
            keystore if keystore is not None else spec.build_keystore()
        )
        #: the trail: every checkpoint's events, concatenated
        self.events: List[object] = []
        #: the last checkpoint's unpacked state (``None``: none yet)
        self.last: Optional[Dict[str, object]] = None
        self.checkpoint = 0
        self.commands: List[Tuple[int, tuple]] = []
        #: the churn record awaiting its commit
        self.pending: Optional[Tuple[int, tuple]] = None
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
        self.keystore.adopt(unpack(data["keys"]))

    def _on_checkpoint(self, seq: int, data: object) -> None:
        state = _load(seq, "checkpoint", data)
        # compaction dropped the genesis, so the checkpoint speaks for
        # the journal's format
        _check_format(state.get("format"))
        self.keystore.adopt(state["keys"])
        captured = state["store"]
        if "events" in captured:
            # a compaction: the whole (bounded) store
            self.events = list(captured["events"])
        else:
            ended = self.last["store"]["seq"] if self.last else 0
            interval = state["events"]
            if [e.seq for e in interval] != list(
                range(ended + 1, captured["seq"] + 1)
            ):
                first = interval[0].seq if interval else None
                raise JournalError(
                    f"journal record {seq}: checkpoint events start at "
                    f"seq {first}, the previous checkpoint ended at seq "
                    f"{ended}"
                )
            self.events.extend(interval)
        self.last, self.checkpoint = state, seq
        self.commands, self.pending = [], None
        self.committed = state["committed"]

    def _abandoned(self, seq: int) -> None:
        if self.pending is not None:
            raise JournalError(
                f"journal record {seq}: the churn group of record "
                f"{self.pending[0]} was neither committed nor "
                f"checkpointed — refusing to re-serve past it"
            )

    def _on_churn(self, seq: int, data: object) -> None:
        self._abandoned(seq)
        self.pending = (seq, _load(seq, "churn", data["requests"]))

    def _on_commit(self, seq: int, data: object) -> None:
        if self.pending is None:
            raise JournalError(f"journal record {seq}: commit of no group")
        self.commands.append(self.pending)
        self.pending = None

    def _on_adjudicate(self, seq: int, data: object) -> None:
        # imported here: repro.cluster's package init imports this module
        # back, so a module-level import fails when repro.journal loads first
        from repro.cluster.requests import AdjudicateRequest

        self._abandoned(seq)
        self.commands.append((seq, (AdjudicateRequest(seq=data["seq"]),)))

    # -- results -------------------------------------------------------------

    def state(self) -> RecoveredState:
        store = EvidenceStore(self.keystore, max_events=self.spec.max_events)
        last = self.last
        if last is not None:
            store.restore({**last["store"], "events": tuple(self.events)})
            ledger = last["ledger"]
            if ledger is not None:
                ledger.attach(store)
        else:
            ledger = None
            if self.spec.ledger is not None:
                from repro.ledger import TrustLedger

                ledger = TrustLedger(self.spec.ledger).attach(store)
        return RecoveredState(
            store=store,
            ledger=ledger,
            planning=last["planning"] if last else None,
            network=last["network"] if last else None,
            checkpoint=self.checkpoint,
            commands=tuple(self.commands),
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
    the interrupted suffix, and return the recovery point — or ``None``
    for a journal with no records (a fresh start).  A journal headed by
    anything but a ``genesis`` or ``checkpoint`` carries no format to
    check and is refused.  The journal's key tables are adopted into
    ``keystore`` (default: a fresh ``spec.build_keystore()``) — the
    coordinator passes the one its pool already forked with.  The
    journal's records are released afterwards."""
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
    replayer = JournalReplayer(spec, keystore=keystore)
    for seq, rtype, data in records:
        if seq > boundary:
            break
        replayer.feed(seq, rtype, data)
    truncated = journal.truncate(boundary)
    # released: the recovered state holds all it needs of them
    journal.records = []
    state = replayer.state()
    state.truncated_records = truncated
    return state
