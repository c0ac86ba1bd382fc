"""``repro.journal``: write-ahead durability for the cluster coordinator.

The cluster's workers hold no state worth saving — a dead one is simply
replaced — but the coordinator's monitor (the network, the reuse cache,
the :class:`~repro.audit.store.EvidenceStore`, the ledger) lives in one
process.  This package makes that state durable:

* :class:`~repro.journal.journal.Journal` — a checksummed JSONL
  write-ahead log in one file, ``journal.jsonl``.  The coordinator
  journals the commands it serves (each admitted churn group whole,
  commit boundaries, adjudications) and checkpoints, and fsyncs only at
  boundaries; a checkpoint carries the events recorded since the
  previous one, and only a ``max_events`` store's checkpoint carries the
  (bounded) trail whole and compacts the file by atomic rename.
  Opening a journal validates every record's CRC and sequence; a torn
  final record (the crash write) is truncated with a loud log line, and
  a directory in the old segmented layout is refused by name.

* :func:`~repro.journal.recovery.recover_state` — the recovery point.
  A restarted coordinator forks its pool, then restores its keys,
  evidence store (seq for seq, from the checkpoints' events), ledger,
  network and planning state at the last checkpoint, and re-serves
  every command committed after it through the code that served it
  live — so the recovered trail is
  byte-identical to an uncrashed run's, which is exactly what the
  kill-the-coordinator tests pin.  Records carry a format number
  (:data:`~repro.journal.recovery.JOURNAL_FORMAT`); a journal written in
  another dialect, or headed by neither, is refused by name.
"""

from repro.journal.journal import Journal, JournalError, pack, unpack
from repro.journal.recovery import (
    BOUNDARY_TYPES,
    JOURNAL_FORMAT,
    JournalReplayer,
    RecoveredState,
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
    "recover_state",
    "unpack",
]
