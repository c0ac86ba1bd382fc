"""The segmented, checksummed JSONL write-ahead journal.

One journal is one directory of ``segment-NNNNNN.jsonl`` files.  Each
line is one record::

    {"n": <seq>, "t": <type>, "d": <data>, "c": <crc32 hex>}

``c`` is the CRC-32 of the canonical JSON encoding of ``[n, t, d]``, so
a flipped bit anywhere in a record fails validation.  Sequence numbers
are contiguous across segments; a gap or an out-of-order record is
corruption and refuses to open.  The **one** tolerated defect is a torn
tail: a crash mid-``write`` leaves a truncated or garbled *final* line
in the *final* segment, which :class:`Journal` physically truncates on
open (with a loud log line) — everything before it is intact by
construction, because the writer never mutates published bytes.

Durability contract: :meth:`Journal.append` buffers through the OS
(``flush`` always, ``fsync`` every ``fsync_batch`` appends);
:meth:`Journal.sync` forces an fsync — callers invoke it at their
commit boundaries, which is what makes those boundaries recoverable.
Segments rotate at ``segment_max_records`` records;
:meth:`Journal.checkpoint` starts a fresh segment whose first record is
the checkpoint and unlinks every older segment — replay cost is bounded
by the inter-checkpoint interval, not the journal's lifetime.

Binary payloads (pickled events, network snapshots) travel through
:func:`pack`/:func:`unpack` — zlib-compressed pickle, base64-armored so
the journal stays one-JSON-object-per-line throughout.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from typing import Dict, List, Optional, Tuple

from repro.obs import log as obs_log
from repro.obs.trace import Stopwatch

__all__ = ["Journal", "JournalError", "pack", "unpack"]

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"


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


def _segment_name(segment_id: int) -> str:
    return f"{SEGMENT_PREFIX}{segment_id:06d}{SEGMENT_SUFFIX}"


def _segment_id(name: str) -> Optional[int]:
    if not (
        name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)
    ):
        return None
    middle = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    return int(middle) if middle.isdigit() else None


class Journal:
    """One coordinator's write-ahead log, open for appending.

    ``records`` holds the validated replay suffix — every record from
    the most recent checkpoint (inclusive) onward, as ``(seq, type,
    data)`` tuples — which is exactly what
    :func:`~repro.journal.recovery.recover_state` consumes.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync_batch: int = 64,
        segment_max_records: int = 4096,
    ) -> None:
        if fsync_batch < 1:
            raise ValueError(f"fsync_batch must be >= 1, got {fsync_batch}")
        if segment_max_records < 2:
            # a segment must fit a checkpoint plus at least one record
            raise ValueError(
                f"segment_max_records must be >= 2, "
                f"got {segment_max_records}"
            )
        self.directory = directory
        self.fsync_batch = fsync_batch
        self.segment_max_records = segment_max_records
        #: validated (seq, type, data) replay suffix, last checkpoint on
        self.records: List[Tuple[int, str, object]] = []
        # write-side counters, surfaced in the cluster metrics snapshot
        self.appended = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.wall_seconds = 0.0
        self.truncated_tail = False
        self._seq = 0
        self._handle = None
        self._segment_id = 0
        self._segment_records = 0
        self._unsynced = 0
        os.makedirs(directory, exist_ok=True)
        self._load()

    # -- open-time validation ------------------------------------------------

    def _segment_ids(self) -> List[int]:
        ids = []
        for name in os.listdir(self.directory):
            segment_id = _segment_id(name)
            if segment_id is not None:
                ids.append(segment_id)
        return sorted(ids)

    def _segment_path(self, segment_id: int) -> str:
        return os.path.join(self.directory, _segment_name(segment_id))

    def _parse_line(self, line: str) -> Tuple[int, str, object]:
        record = json.loads(line)
        seq, rtype, data = record["n"], record["t"], record["d"]
        if record["c"] != _checksum(seq, rtype, data):
            raise ValueError("checksum mismatch")
        return seq, rtype, data

    def _load(self) -> None:
        ids = self._segment_ids()
        all_records: List[Tuple[int, str, object]] = []
        last_seq = None
        for position, segment_id in enumerate(ids):
            final_segment = position == len(ids) - 1
            path = self._segment_path(segment_id)
            with open(path, "rb") as handle:
                raw = handle.read()
            if final_segment and raw and not raw.endswith(b"\n"):
                # a tear that took only the trailing newline: the last
                # record's bytes are whole, but an append would land on
                # the same line and corrupt it — restore the newline
                # before parsing (a torn *record* below re-truncates)
                with open(path, "ab") as whole:
                    whole.write(b"\n")
                raw += b"\n"
            offset = 0
            lines = raw.split(b"\n")
            for index, blob in enumerate(lines):
                if not blob.strip():
                    offset += len(blob) + 1
                    continue
                try:
                    seq, rtype, data = self._parse_line(
                        blob.decode("utf-8")
                    )
                    if last_seq is not None and seq != last_seq + 1:
                        raise ValueError(
                            f"sequence gap: {last_seq} -> {seq}"
                        )
                except (ValueError, KeyError, TypeError) as exc:
                    trailing = any(
                        rest.strip() for rest in lines[index + 1:]
                    )
                    if not final_segment or trailing:
                        raise JournalError(
                            f"journal {self.directory} is corrupt at "
                            f"{_segment_name(segment_id)} record "
                            f"{index + 1}: {exc}"
                        ) from exc
                    # the torn tail: the crash write.  Truncate the
                    # published bytes at its start and carry on.
                    with open(path, "ab") as whole:
                        whole.truncate(offset)
                    self.truncated_tail = True
                    obs_log.emit(
                        "journal",
                        f"truncated torn tail of "
                        f"{_segment_name(segment_id)} at byte {offset} "
                        f"({exc}); the interrupted record is discarded "
                        f"and will be re-driven",
                        level="warning",
                        segment=_segment_name(segment_id),
                        offset=offset,
                    )
                    break
                last_seq = seq
                all_records.append((seq, rtype, data))
                if rtype == "checkpoint":
                    # replay starts at the newest checkpoint; anything
                    # older survives only until compaction cleanup below
                    all_records = [(seq, rtype, data)]
                offset += len(blob) + 1
        self.records = all_records
        self._seq = last_seq or 0
        # a crash between checkpoint() writing the new segment and
        # unlinking the old ones leaves stale segments; finish the job
        if self.records and self.records[0][1] == "checkpoint":
            keep_from = self._segment_of(self.records[0][0], ids)
            for segment_id in ids:
                if segment_id < keep_from:
                    os.unlink(self._segment_path(segment_id))
            ids = [i for i in ids if i >= keep_from]
        self._segment_id = ids[-1] if ids else 0
        self._segment_records = self._count_records(self._segment_id)

    def _segment_of(self, seq: int, ids: List[int]) -> int:
        """The segment holding record ``seq`` (first-record scan)."""
        owner = ids[0] if ids else 0
        for segment_id in ids:
            first = self._first_seq(segment_id)
            if first is None or first > seq:
                break
            owner = segment_id
        return owner

    def _first_seq(self, segment_id: int) -> Optional[int]:
        path = self._segment_path(segment_id)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    return json.loads(line)["n"]
        return None

    def _count_records(self, segment_id: int) -> int:
        path = self._segment_path(segment_id)
        if not os.path.exists(path):
            return 0
        with open(path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())

    # -- appending -----------------------------------------------------------

    @property
    def seq(self) -> int:
        return self._seq

    def _open_segment(self, segment_id: int) -> None:
        if self._handle is not None:
            self._fsync()
            self._handle.close()
        self._segment_id = segment_id
        self._segment_records = self._count_records(segment_id)
        self._handle = open(
            self._segment_path(segment_id), "a", encoding="utf-8"
        )

    def _ensure_open(self) -> None:
        if self._handle is None:
            self._open_segment(self._segment_id or 1)

    def _write(self, rtype: str, data: object) -> int:
        """Write one record line to the open segment (flushed, not yet
        fsynced); returns its sequence number."""
        self._seq += 1
        seq = self._seq
        line = json.dumps(
            {
                "n": seq,
                "t": rtype,
                "d": data,
                "c": _checksum(seq, rtype, data),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self._handle.write(line)
        self._handle.write("\n")
        self._handle.flush()
        self._segment_records += 1
        self.appended += 1
        self.bytes_written += len(line) + 1
        self._unsynced += 1
        return seq

    def append(self, rtype: str, data: object) -> int:
        """Durably order one record; returns its sequence number."""
        with Stopwatch() as watch:
            self._ensure_open()
            if self._segment_records >= self.segment_max_records:
                self._open_segment(self._segment_id + 1)
            seq = self._write(rtype, data)
            self.records.append((seq, rtype, data))
            if self._unsynced >= self.fsync_batch:
                self._fsync()
        self.wall_seconds += watch.seconds
        return seq

    def _fsync(self) -> None:
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
            self._unsynced = 0

    def sync(self) -> None:
        """Force the journal to stable storage — the commit barrier."""
        with Stopwatch() as watch:
            if self._handle is not None:
                self._handle.flush()
                self._fsync()
        self.wall_seconds += watch.seconds

    def checkpoint(self, data: object) -> int:
        """Write ``data`` as a checkpoint and compact: the checkpoint
        opens a fresh segment, is fsynced immediately, and every older
        segment is unlinked — replay restarts from it."""
        retired = self._segment_ids()
        self._open_segment((retired[-1] if retired else 0) + 1)
        seq = self._write("checkpoint", data)
        self._fsync()
        self.records = [(seq, "checkpoint", data)]
        for segment_id in retired:
            path = self._segment_path(segment_id)
            if os.path.exists(path):
                os.unlink(path)
        return seq

    def truncate(self, last_seq: int) -> int:
        """Discard every record with seq > ``last_seq`` (an uncommitted
        suffix recovery is abandoning).  Returns how many were dropped."""
        if self._handle is not None:
            self._fsync()
            self._handle.close()
            self._handle = None
        dropped = 0
        for segment_id in reversed(self._segment_ids()):
            path = self._segment_path(segment_id)
            kept_lines: List[str] = []
            drop_here = 0
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    if json.loads(line)["n"] > last_seq:
                        drop_here += 1
                    else:
                        kept_lines.append(line)
            if not drop_here:
                break
            dropped += drop_here
            if kept_lines:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.writelines(kept_lines)
                    handle.flush()
                    os.fsync(handle.fileno())
            else:
                os.unlink(path)
        self.records = [r for r in self.records if r[0] <= last_seq]
        self._seq = min(self._seq, last_seq)
        ids = self._segment_ids()
        self._segment_id = ids[-1] if ids else 0
        self._segment_records = self._count_records(self._segment_id)
        return dropped

    def stats(self) -> Dict[str, object]:
        return {
            "appended": self.appended,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "wall_seconds": self.wall_seconds,
            "segments": len(self._segment_ids()),
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
