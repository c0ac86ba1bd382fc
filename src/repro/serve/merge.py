"""The merger: folding executed rounds back into one trail.

Shard workers finish out of order; the evidence store is append-only
and its sequence numbers are the audit trail's spine.  The merger walks
the epoch *plan* — the canonical order — and records each entry from
whichever source produced it: the reuse cache, or the ``(report,
stats)`` result of its round — run off-wire on a shard worker, or on
the monitor's own wire path (entries a sharded executor could not take,
e.g. custom-chooser policies).  Recording goes through
:meth:`~repro.audit.monitor.Monitor.record_planned` /
:meth:`~repro.audit.monitor.Monitor.emit_reused`, so the merged store
is *byte-identical* to what a serial, unsharded
:meth:`~repro.audit.monitor.Monitor.run_epoch` would have written —
same events, same rounds, same sequence numbers, same reuse-cache
state.  The parity suite in ``tests/test_serve.py`` pins this for all
four protocol variants.
"""

from __future__ import annotations

from typing import Mapping

from repro.audit.events import EpochReport
from repro.audit.monitor import EpochPlan, Monitor

from repro.serve.sharding import RoundResult

__all__ = ["MergeError", "fold_plan"]


class MergeError(RuntimeError):
    """A plan entry has no outcome, or an outcome contradicts its plan."""


def fold_plan(
    monitor: Monitor,
    plan: EpochPlan,
    outcomes: Mapping[int, RoundResult],
) -> EpochReport:
    """Record one executed plan into the monitor's evidence store.

    ``outcomes`` maps plan positions to executed rounds — shard results
    and the monitor's local wire rounds alike.  Every fresh entry must
    appear in it: a hole, or an outcome whose round/spec disagrees with
    the plan, raises :class:`MergeError` (and counts as a parity failure
    upstream) rather than silently corrupting the trail.
    """
    report = EpochReport(epoch=plan.epoch)
    report.deferred.extend(plan.deferred)
    for position, entry in enumerate(plan.entries):
        if not entry.fresh:
            event = monitor.emit_reused(entry, epoch=plan.epoch)
        else:
            if position not in outcomes:
                raise MergeError(
                    f"plan position {position} "
                    f"({entry.item.asn}, {entry.item.prefix}) has no outcome"
                )
            session_report, stats = outcomes[position]
            if session_report.round != entry.round:
                raise MergeError(
                    f"outcome round {session_report.round} != "
                    f"planned {entry.round}"
                )
            if session_report.spec != entry.item.spec:
                raise MergeError(
                    f"outcome spec diverged from plan at position {position}"
                )
            event = monitor.record_planned(
                entry, session_report, stats, epoch=plan.epoch
            )
        report.events.append(event)
    report.signatures = sum(e.stats.signatures for e in report.events)
    report.verifications = sum(e.stats.verifications for e in report.events)
    return report
