"""``repro.journal``: write-ahead durability for the cluster coordinator.

The cluster's workers hold no state worth saving — a dead one is simply
replaced — but the coordinator's monitor (the network, the reuse cache,
the :class:`~repro.audit.store.EvidenceStore`, the ledger) lives in one
process.  This package makes that state durable:

* :class:`~repro.journal.journal.Journal` — a segmented, checksummed
  JSONL write-ahead log.  The coordinator appends a record at every
  state change (admitted churn, epoch plans, recorded events, commit
  boundaries, adjudications) and fsyncs at commit boundaries; segments
  rotate at a size bound and a checkpoint compacts everything older
  away.  Opening a journal validates every record's CRC and sequence; a
  torn final record (the crash write) is truncated with a loud log
  line.

* :func:`~repro.journal.recovery.recover_state` — deterministic replay.
  A restarted coordinator rebuilds its evidence store (seq for seq),
  ledger, reuse cache, churn suffix and epoch/round counters to the
  exact last *commit boundary* and builds its monitor from them — the
  recovered trail is byte-identical to an uncrashed run's, which is
  exactly what the kill-the-coordinator tests pin.  Records carry a
  format number (:data:`~repro.journal.recovery.JOURNAL_FORMAT`); a
  journal written in another dialect is refused by name.
"""

from repro.journal.journal import Journal, JournalError, pack, unpack
from repro.journal.recovery import (
    BOUNDARY_TYPES,
    JOURNAL_FORMAT,
    JournalReplayer,
    RecoveredState,
    policy_choosers,
    recover_state,
)

__all__ = [
    "BOUNDARY_TYPES",
    "JOURNAL_FORMAT",
    "Journal",
    "JournalError",
    "JournalReplayer",
    "RecoveredState",
    "pack",
    "policy_choosers",
    "recover_state",
    "unpack",
]
