"""The checksummed JSONL write-ahead journal.

One journal is one file, ``journal.jsonl``, inside its directory.  Each
line is one record::

    {"n": <seq>, "t": <type>, "d": <data>, "c": <crc32 hex>}

``c`` is the CRC-32 of the canonical JSON encoding of ``[n, t, d]``, so
a flipped bit anywhere in a record fails validation.  Sequence numbers
are contiguous; a gap or an out-of-order record is corruption and
refuses to open.  The **one** tolerated defect is a torn tail: a crash
mid-``write`` leaves a truncated or garbled *final* line, which
:class:`Journal` physically truncates on open (with a loud log line) —
everything before it is intact by construction, because the writer only
ever appends.

Durability contract: :meth:`Journal.append` flushes to the OS and no
further; :meth:`Journal.sync` is the fsync — callers invoke it at their
boundaries, and recovery drops everything after the last boundary, so
an append never needs one of its own.  A checkpoint is normally just
another appended record; :meth:`Journal.checkpoint` is the compaction:
it writes one record alone to ``journal.jsonl.tmp``, fsyncs it, renames
it over the journal and fsyncs the directory — a crash on either side
of the rename leaves one whole journal (a leftover ``.tmp`` is deleted
on open).  A directory in the old multi-file layout (``segment-*.jsonl``)
is refused by name.

Binary payloads (churn groups, checkpoints) travel through
:func:`pack`/:func:`unpack` — zlib-compressed pickle, base64-armored so
the journal stays one-JSON-object-per-line throughout.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from typing import Dict, List, Tuple

from repro.obs import log as obs_log
from repro.obs.trace import Stopwatch

__all__ = ["Journal", "JournalError", "pack", "unpack"]

JOURNAL_FILE = "journal.jsonl"


class JournalError(RuntimeError):
    """The journal is corrupt beyond the tolerated torn tail, or was
    asked to do something inconsistent with its on-disk state."""


def pack(obj: object) -> str:
    """Armor an arbitrary picklable object for a JSONL record."""
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj))
    ).decode("ascii")


def unpack(text: str) -> object:
    """Inverse of :func:`pack`."""
    return pickle.loads(zlib.decompress(base64.b64decode(text)))


def _checksum(seq: int, rtype: str, data: object) -> str:
    canonical = json.dumps(
        [seq, rtype, data], sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return f"{zlib.crc32(canonical) & 0xFFFFFFFF:08x}"


def _fsync_directory(directory: str) -> None:
    """Make a rename inside ``directory`` survive a power loss."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class Journal:
    """One coordinator's write-ahead log, open for appending.

    ``records`` holds what was read at open — every validated record of
    the file, as ``(seq, type, data)`` tuples — which is exactly what
    :func:`~repro.journal.recovery.recover_state` consumes (and then
    releases).  Appends are written, never kept.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, JOURNAL_FILE)
        #: validated (seq, type, data) records read at open
        self.records: List[Tuple[int, str, object]] = []
        # write-side counters, surfaced in the cluster metrics snapshot
        self.appended = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.wall_seconds = 0.0
        self.truncated_tail = False
        self._seq = 0
        self._unsynced = False
        os.makedirs(directory, exist_ok=True)
        for name in sorted(os.listdir(directory)):
            if name.startswith("segment-") and name.endswith(".jsonl"):
                raise JournalError(
                    f"journal {directory} holds {name}, a segment of the "
                    f"old multi-file layout this build does not read — "
                    f"delete the directory, it cannot be migrated"
                )
        staged = self.path + ".tmp"
        if os.path.exists(staged):
            # a checkpoint that died before its rename: the journal it
            # would have replaced is intact
            os.unlink(staged)
        self._load()
        self._handle = open(self.path, "a", encoding="utf-8")

    # -- open-time validation ------------------------------------------------

    def _parse_line(self, line: str) -> Tuple[int, str, object]:
        record = json.loads(line)
        seq, rtype, data = record["n"], record["t"], record["d"]
        if record["c"] != _checksum(seq, rtype, data):
            raise ValueError("checksum mismatch")
        return seq, rtype, data

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        last_seq = None
        offset = 0
        blob = b"\n"
        # line by line: a long journal's bytes are never held beside
        # the records parsed from them
        with open(self.path, "rb") as handle:
            for number, blob in enumerate(handle, 1):
                if not blob.strip():
                    offset += len(blob)
                    continue
                try:
                    seq, rtype, data = self._parse_line(blob.decode("utf-8"))
                    if last_seq is not None and seq != last_seq + 1:
                        raise ValueError(f"sequence gap: {last_seq} -> {seq}")
                except (ValueError, KeyError, TypeError) as exc:
                    if any(rest.strip() for rest in handle):
                        raise JournalError(
                            f"journal {self.directory} is corrupt at record "
                            f"{number}: {exc}"
                        ) from exc
                    # the torn tail: the crash write.  Truncate the
                    # published bytes at its start and carry on.
                    os.truncate(self.path, offset)
                    self.truncated_tail = True
                    obs_log.emit(
                        "journal",
                        f"truncated torn tail of {JOURNAL_FILE} at byte "
                        f"{offset} ({exc}); the interrupted record is "
                        f"discarded and will be re-driven",
                        level="warning",
                        offset=offset,
                    )
                    blob = b"\n"
                    break
                last_seq = seq
                self.records.append((seq, rtype, data))
                offset += len(blob)
        if not blob.endswith(b"\n"):
            # a tear that took only the trailing newline: the last
            # record's bytes are whole, but an append would land on
            # the same line and corrupt it — restore the newline
            with open(self.path, "ab") as whole:
                whole.write(b"\n")
        self._seq = last_seq or 0

    # -- appending -----------------------------------------------------------

    @property
    def seq(self) -> int:
        return self._seq

    def _line(self, rtype: str, data: object) -> Tuple[int, str]:
        """Number and encode the next record; returns ``(seq, line)``."""
        self._seq += 1
        line = json.dumps(
            {
                "n": self._seq,
                "t": rtype,
                "d": data,
                "c": _checksum(self._seq, rtype, data),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self.appended += 1
        self.bytes_written += len(line) + 1
        return self._seq, line + "\n"

    def append(self, rtype: str, data: object) -> int:
        """Order one record (flushed, durable at the next
        :meth:`sync`); returns its sequence number."""
        with Stopwatch() as watch:
            seq, line = self._line(rtype, data)
            self._handle.write(line)
            self._handle.flush()
            self._unsynced = True
        self.wall_seconds += watch.seconds
        return seq

    def sync(self) -> None:
        """Force the journal to stable storage — the commit barrier."""
        with Stopwatch() as watch:
            if self._unsynced:
                os.fsync(self._handle.fileno())
                self.fsyncs += 1
                self._unsynced = False
        self.wall_seconds += watch.seconds

    def checkpoint(self, data: object) -> int:
        """Compact: replace the journal by ``data`` as its one
        ``checkpoint`` record — written alone to ``journal.jsonl.tmp``
        and fsynced, renamed over the journal, then the directory
        fsynced.  ``data`` must stand for everything it replaces."""
        seq, line = self._line("checkpoint", data)
        staged = self.path + ".tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, self.path)
        _fsync_directory(self.directory)
        self.fsyncs += 2
        self._handle.close()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._unsynced = False
        return seq

    def truncate(self, last_seq: int) -> int:
        """Discard every record with seq > ``last_seq`` (an uncommitted
        suffix recovery is abandoning): the file is cut at the first
        dropped record's byte offset, durable at the next :meth:`sync`.
        Returns how many were dropped."""
        # sequence numbers are contiguous, so the count needs no scan
        dropped = max(0, self._seq - last_seq)
        if dropped:
            offset = 0
            with open(self.path, "rb") as handle:
                for line in handle:
                    if line.strip() and json.loads(line)["n"] > last_seq:
                        break
                    offset += len(line)
            os.truncate(self.path, offset)
            self._unsynced = True
        self._seq = min(self._seq, last_seq)
        return dropped

    def stats(self) -> Dict[str, object]:
        return {
            "appended": self.appended,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "wall_seconds": self.wall_seconds,
            "seq": self._seq,
        }

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
