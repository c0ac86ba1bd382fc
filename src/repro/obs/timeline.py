"""Trace analysis: timelines, per-epoch critical paths, trace diffs.

Works over the plain-dict records produced by
:class:`~repro.obs.trace.TraceContext` — either live (a context's
``records``) or loaded from a flight-recorder JSONL dump.  Container
spans (``epoch``, ``group``) frame the timeline; everything else is a
*stage* and is what critical-path attribution sums.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "critical_path",
    "diff_traces",
    "load_records",
    "render_timeline",
]

#: span names that frame other spans rather than doing work themselves
CONTAINER_NAMES = ("epoch", "group")


def load_records(path: str) -> List[Dict[str, object]]:
    """Read a JSONL trace dump (``dump`` header lines are kept — the
    renderer surfaces the dump reason).  A directory reads every
    ``*.jsonl`` inside it, sorted by name — the rotation order of a
    :class:`~repro.obs.recorder.FlightRecorder` dump directory."""
    if os.path.isdir(path):
        records: List[Dict[str, object]] = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".jsonl"):
                records.extend(load_records(os.path.join(path, name)))
        return records
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _spans(records: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    return [r for r in records if r.get("kind") == "span"]


def _closed_stages(
    records: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    return [
        r
        for r in _spans(records)
        if r.get("end") is not None and r.get("name") not in CONTAINER_NAMES
    ]


def _duration(record: Dict[str, object]) -> float:
    return float(record["end"]) - float(record["start"])


def _seconds_by_stage(records: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Summed wall per stage name, across the whole trace."""
    totals: Dict[str, float] = {}
    for record in _closed_stages(records):
        name = str(record["name"])
        totals[name] = totals.get(name, 0.0) + _duration(record)
    return totals


def critical_path(
    records: Iterable[Dict[str, object]],
) -> Dict[int, Dict[str, object]]:
    """Per epoch: the dominant stage and the dominant worker (by summed
    stage wall).  Epoch-less records are ignored."""
    records = list(records)
    by_epoch: Dict[int, List[Dict[str, object]]] = {}
    for record in _closed_stages(records):
        epoch = record.get("epoch")
        if epoch is not None:
            by_epoch.setdefault(int(epoch), []).append(record)
    walls: Dict[int, float] = {}
    for record in _spans(records):
        if record.get("name") == "epoch" and record.get("end") is not None:
            epoch = record.get("epoch")
            if epoch is not None:
                walls[int(epoch)] = _duration(record)
    out: Dict[int, Dict[str, object]] = {}
    for epoch in sorted(by_epoch):
        stage_totals: Dict[str, float] = {}
        worker_totals: Dict[int, float] = {}
        for record in by_epoch[epoch]:
            stage_totals[str(record["name"])] = (
                stage_totals.get(str(record["name"]), 0.0)
                + _duration(record)
            )
            if record.get("worker") is not None:
                worker = int(record["worker"])
                worker_totals[worker] = (
                    worker_totals.get(worker, 0.0) + _duration(record)
                )
        stage = max(stage_totals, key=lambda n: (stage_totals[n], n))
        entry: Dict[str, object] = {
            "epoch": epoch,
            "stage": stage,
            "stage_seconds": stage_totals[stage],
            "stages": dict(sorted(stage_totals.items())),
        }
        if epoch in walls:
            entry["wall_seconds"] = walls[epoch]
        if worker_totals:
            worker = max(
                worker_totals, key=lambda w: (worker_totals[w], -w)
            )
            entry["worker"] = worker
            entry["worker_seconds"] = worker_totals[worker]
        out[epoch] = entry
    return out


def diff_traces(
    a: Iterable[Dict[str, object]],
    b: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Per-stage wall totals of trace ``b`` against trace ``a``."""
    totals_a = _seconds_by_stage(a)
    totals_b = _seconds_by_stage(b)
    rows = []
    for name in sorted(set(totals_a) | set(totals_b)):
        sec_a = totals_a.get(name, 0.0)
        sec_b = totals_b.get(name, 0.0)
        rows.append(
            {
                "stage": name,
                "a_seconds": sec_a,
                "b_seconds": sec_b,
                "delta_seconds": sec_b - sec_a,
            }
        )
    return rows


def open_spans(
    records: Iterable[Dict[str, object]],
    *,
    worker: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Spans that never closed (``end: null``) — a crash dump's
    in-flight work; optionally only one worker's."""
    found = [r for r in _spans(records) if r.get("end") is None]
    if worker is not None:
        found = [r for r in found if r.get("worker") == worker]
    return found


def _depths(records: Sequence[Dict[str, object]]) -> Dict[str, int]:
    parents = {
        str(r.get("id")): r.get("parent")
        for r in records
        if r.get("id") is not None
    }
    depths: Dict[str, int] = {}

    def depth(span_id) -> int:
        if span_id is None or span_id not in parents:
            return 0
        if span_id in depths:
            return depths[span_id]
        depths[str(span_id)] = 1 + depth(parents[span_id])
        return depths[str(span_id)]

    for span_id in parents:
        depth(span_id)
    return depths


def render_timeline(records: Iterable[Dict[str, object]]) -> List[str]:
    """Human-readable per-epoch timeline lines."""
    records = list(records)
    lines: List[str] = []
    for record in records:
        if record.get("kind") == "dump":
            lines.append(
                f"flight dump: {record.get('reason')} "
                f"({record.get('records')} record(s), "
                f"{record.get('open')} open span(s))"
            )
    timed = [
        r
        for r in records
        if r.get("kind") in ("span", "event") and r.get("start") is not None
    ]
    if not timed:
        lines.append("(no trace records)")
        return lines
    depths = _depths(timed)
    by_epoch: Dict[object, List[Dict[str, object]]] = {}
    for record in timed:
        by_epoch.setdefault(record.get("epoch"), []).append(record)
    epochs = sorted(
        by_epoch, key=lambda e: (e is None, e if e is not None else 0)
    )
    for epoch in epochs:
        group = sorted(by_epoch[epoch], key=lambda r: float(r["start"]))
        base = float(group[0]["start"])
        lines.append(f"epoch {epoch if epoch is not None else '-'}")
        for record in group:
            offset_ms = (float(record["start"]) - base) * 1000.0
            indent = "  " * (1 + depths.get(str(record.get("id")), 0))
            who = (
                f" w{record['worker']}"
                if record.get("worker") is not None
                else ""
            )
            if record.get("kind") == "event":
                lines.append(
                    f"{indent}· +{offset_ms:.3f}ms {record['name']}"
                    f"{who} [{record.get('component')}] {record.get('attrs') or ''}".rstrip()
                )
                continue
            if record.get("end") is None:
                tail = f"OPEN ({record.get('status')})"
            else:
                tail = f"{_duration(record) * 1000.0:.3f}ms"
            lines.append(
                f"{indent}+{offset_ms:.3f}ms {record['name']}{who} "
                f"[{record.get('component')}] {tail} ({record.get('id')})"
            )
    return lines
