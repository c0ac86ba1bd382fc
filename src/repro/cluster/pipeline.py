"""The one churn → verdict pipeline, owned by the one coordinator.

:class:`Pipeline` is everything between "a coalesced churn group was
dispatched" and "its verdicts are in the evidence store", over one
:class:`~repro.audit.monitor.Monitor` and one
:class:`~repro.cluster.pool.ShardExecutor`:

    apply steps and marks → run_to_quiescence → plan_epoch → deal
    every fresh entry evenly in plan order → one run_offwire_round per
    task on the pool → fold_plan in plan order → probes by audit_once

Planning happens once, here: :meth:`~repro.audit.monitor.Monitor.plan_epoch`
fixes every fresh round's number and nonce stream before any round
runs, so the pool's workers need no state and who runs a round cannot
matter.  A policy's chooser is a registry name, so every fresh round
ships; the fold is :func:`~repro.audit.monitor.fold_plan`, the same
one the serial monitor records through.  Only probes stay on the
monitor's own wire path — Byzantine deviations are live behaviours
that must see real transport.

The coordinator (:class:`~repro.cluster.cluster.Cluster`) builds the
one pipeline and journals around it; both doors — ``Cluster.pump()``
and the asyncio :class:`~repro.serve.service.VerificationService` —
reach it through ``Cluster.serve_group``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.events import EpochOutcome, EpochReport, SliceStats
from repro.audit.monitor import EpochPlan, Monitor, fold_plan
from repro.audit.wire import RoundResult, reports_match, run_offwire_round
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext
from repro.pvr.scenarios import apply_step

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.pool import ClusterError, ShardExecutor
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
    answer_adjudicate,
)

__all__ = ["Pipeline"]


class Pipeline:
    """One monitor's churn → verdict path over one round pool.

    ``on_plan`` is the coordinator's seam between planning and
    execution (it journals the plan there).  Spans are the
    coordinator's (``component="cluster"``) whichever door the request
    came through.  ``parity_sample`` > 0 re-proves every Nth shipped
    verdict in-process after each epoch; failures are counted, never
    raised — the CI smoke jobs gate on the counter staying zero.
    """

    def __init__(
        self,
        monitor: Monitor,
        executor: ShardExecutor,
        metrics: ClusterMetrics,
        recorder: FlightRecorder,
        tracer: TraceContext,
        *,
        ledger=None,
        parity_sample: int = 0,
        flight_dump: Optional[str] = None,
        on_plan: Optional[Callable[[EpochPlan], None]] = None,
    ) -> None:
        self.monitor = monitor
        self.executor = executor
        self.metrics = metrics
        self.recorder = recorder
        self.tracer = tracer
        self.ledger = ledger
        self.parity_sample = parity_sample
        self.flight_dump = flight_dump
        self.on_plan = on_plan
        metrics.placement = executor

    def dump_flight(self, reason: str) -> None:
        if self.flight_dump:
            self.recorder.dump(self.flight_dump, reason)

    # -- requests ------------------------------------------------------------

    def serve_churn_group(
        self, requests: Sequence[ChurnRequest]
    ) -> EpochOutcome:
        """Apply a coalesced group's churn as one burst, run epochs
        until nothing is pending (a work bound may defer pairs), then
        every request's probes in admission order.  Metrics absorb each
        epoch as it lands, so a failure later in the group cannot leave
        recorded evidence unaccounted for."""
        monitor = self.monitor
        network = monitor.network
        for request in requests:
            for step in request.steps:
                apply_step(step, network)
            for asn, prefix in request.marks:
                monitor.mark(asn, prefix)
        network.run_to_quiescence()
        outcome = EpochOutcome(coalesced=len(requests))
        coalesced = len(requests)
        while monitor.pending():
            report, slices, respawns = self.run_epoch(coalesced=coalesced)
            coalesced = 0  # count the group against its first epoch only
            outcome.reports.append(report)
            outcome.slices.extend(slices)
            outcome.respawns += respawns
        for request in requests:
            for probe in request.probes:
                outcome.probe_events.append(
                    monitor.audit_once(
                        probe.asn,
                        probe.prefix,
                        probe.recipient,
                        prover=(
                            probe.prover(monitor.keystore)
                            if probe.prover is not None
                            else None
                        ),
                        max_length=probe.max_length,
                    )
                )
        if outcome.probe_events:
            self.metrics.note_probes(outcome.probe_events)
        return outcome

    def answer_adjudicate(self, request: AdjudicateRequest):
        payload = answer_adjudicate(self.monitor.evidence, request)
        if self.ledger is not None:
            self.ledger.fold_adjudications(payload)
        return payload

    # -- one epoch -----------------------------------------------------------

    def run_epoch(
        self, *, coalesced: int = 0
    ) -> Tuple[EpochReport, List[SliceStats], int]:
        """Plan centrally, verify on the pool, fold in plan order.
        Returns the epoch's report, the per-worker execution stats and
        how many workers died (and were replaced) on the way."""
        monitor, tracer = self.monitor, self.tracer
        epoch_span = tracer.begin(
            "epoch", component="cluster", coalesced=coalesced
        )
        try:
            plan = monitor.plan_epoch()
        except Exception:
            # nothing was planned, so there are no entries to re-mark
            tracer.finish(epoch_span, status="error")
            raise
        epoch_span.epoch = plan.epoch
        try:
            if self.on_plan is not None:
                self.on_plan(plan)
            fresh = plan.fresh_entries()
            neighbors = monitor.network.transport.neighbors
            outcomes, slices, reaped = self.executor.execute(
                fresh,
                {
                    entry.item.spec.prover: len(
                        neighbors(entry.item.spec.prover)
                    )
                    for _, entry in fresh
                },
                epoch=plan.epoch,
                tracer=tracer,
                on_reap=self.dump_flight,
            )
            with tracer.span("merge", component="cluster", epoch=plan.epoch):
                report = fold_plan(monitor, plan, outcomes)
        except Exception as exc:
            monitor.requeue(plan)
            tracer.finish(epoch_span, status="error")
            if isinstance(exc, ClusterError):
                self.dump_flight(f"ClusterError: {exc}")
            raise
        # the one obs timer: the epoch span both frames the trace and
        # pins the report's wall
        tracer.finish(epoch_span)
        report.wall_seconds = epoch_span.duration
        self.metrics.note_epoch(report, coalesced=coalesced)
        for stats in slices:
            self.metrics.note_slice(stats)
            if stats.fresh:
                self.metrics.note_worker(stats.worker, stats.fresh)
        for worker, reason in reaped:
            self.metrics.note_respawn(worker=worker, reason=reason)
        self._parity_check(plan, outcomes)
        return report, slices, len(reaped)

    def _parity_check(
        self, plan: EpochPlan, outcomes: Dict[int, RoundResult]
    ) -> None:
        """Re-prove a sample of the pool's verdicts in-process and
        compare — catches anything that could make a worker diverge
        from the planner's promise (pickling loss, nondeterminism, a
        bad fold) without paying for a full shadow monitor."""
        if self.parity_sample < 1:
            return
        checked = failed = 0
        for position in sorted(outcomes)[:: self.parity_sample]:
            entry = plan.entries[position]
            replay, _ = run_offwire_round(
                self.monitor.keystore,
                entry.item.spec,
                entry.item.routes,
                round=entry.round,
                rng_seed=self.monitor.rng_seed,
                chooser=entry.chooser,
            )
            checked += 1
            if not reports_match(replay, outcomes[position][0]):
                failed += 1
        self.metrics.note_parity(checked, failed)
        if failed:
            self.tracer.event(
                "parity-failure", component="cluster",
                epoch=plan.epoch, checked=checked, failed=failed,
            )
            self.dump_flight(
                f"{failed} of {checked} parity self-checks failed"
            )
