"""The verification service: an asyncio front-end over the audit plane.

One long-lived :class:`VerificationService` fronts one
:class:`~repro.bgp.network.BGPNetwork`'s monitor.  The request
lifecycle is **admit → shard → verify → merge**:

* **admit** — requests (:class:`ChurnRequest`, :class:`QueryRequest`,
  :class:`AdjudicateRequest`) enter the shared
  :class:`~repro.cluster.admission.AdmissionQueue` (door, coalescing
  cap, dispatch-time shedding, controller tick — the same plane the
  cluster coordinator hosts); a full queue rejects at the door
  (:class:`AdmissionError`) instead of building unbounded backlog;
* **shard** — adjacent churn requests the queue coalesced ride one
  verification epoch (:meth:`~repro.audit.monitor.Monitor.plan_epoch`),
  and the plan's fresh entries are dealt evenly across the stateless
  worker pool;
* **verify** — each batch runs serially inside its worker process with
  the rounds and nonce streams the planner pre-allocated;
* **merge** — the merger folds the executed rounds back into the
  single evidence store in plan order, byte-identical to an
  unsharded monitor run (optionally re-proving a sample of fresh
  verdicts as an online parity self-check).

Queries and adjudication are answered from the merged store between
epochs, so readers always see a consistent, fully merged trail.

The verification epochs themselves run in a worker thread
(``asyncio.to_thread``) — the event loop stays responsive to admission
while RSA grinds — but only one epoch runs at a time: epochs must see a
quiescent network, exactly the constraint
:meth:`~repro.audit.monitor.Monitor.run_epoch` documents.
"""

from __future__ import annotations

import asyncio
import functools
from typing import List, Optional

from repro.audit.events import EpochOutcome, SliceStats
from repro.audit.monitor import EpochPlan, Monitor
from repro.audit.store import EvidenceStore
from repro.audit.wire import reports_match, run_offwire_round
from repro.bgp.network import BGPNetwork
from repro.cluster.admission import AdmissionQueue, Ticket, make_admission
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
    Completion,
    QueryRequest,
    answer_adjudicate,
    answer_query,
)
from repro.crypto.keystore import KeyStore
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext
from repro.pvr.scenarios import apply_step

from repro.serve import merge
from repro.serve.sharding import ShardExecutor

__all__ = ["VerificationService"]


def _settle(future: "asyncio.Future[Completion]", ticket: Ticket) -> None:
    """A ticket's done-callback: hand its outcome to the client's
    future (unless the client already cancelled it)."""
    if future.done():
        return
    if ticket.error is not None:
        future.set_exception(ticket.error)
    else:
        future.set_result(ticket.completion)


def _ships_to_shard(chooser) -> bool:
    """Whether a plan entry's chooser ref can cross the worker boundary:
    no chooser, or a :mod:`repro.audit.choosers` registry name."""
    return chooser is None or isinstance(chooser, str)


class VerificationService:
    """The sharded, asynchronous serving layer over one audit monitor.

    ``shards`` sizes the stateless worker pool each epoch's fresh
    rounds are dealt across.  ``admission`` (an
    :class:`~repro.cluster.admission.AdmissionPolicy` or spec string)
    selects the overload behaviour — reject at the door (default),
    deadline-based shedding, or per-request-type priorities;
    ``queue_depth`` and ``batch_max`` are the
    :class:`~repro.cluster.admission.AdmissionQueue`'s hard bound and
    coalescing cap (``ClusterSpec.queue_depth``/``coalesce_max``).
    """

    def __init__(
        self,
        network: BGPNetwork,
        *,
        shards: int = 1,
        admission: object = None,
        keystore: Optional[KeyStore] = None,
        key_bits: int = 512,
        rng_seed: object = 2011,
        queue_depth: int = 64,
        batch_max: int = 16,
        max_work: Optional[int] = None,
        max_events: Optional[int] = None,
        backend: Optional[str] = None,
        parity_sample: int = 0,
        metrics: Optional[ClusterMetrics] = None,
        ledger: object = None,
        controller: object = None,
        trace: bool = True,
        flight_dump: Optional[str] = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if parity_sample < 0:
            raise ValueError("parity_sample must be >= 0")
        self.keystore = (
            keystore
            if keystore is not None
            else KeyStore(seed=rng_seed, key_bits=key_bits)
        )
        self.rng_seed = rng_seed
        #: causal tracing + crash forensics (:mod:`repro.obs`): one
        #: trace context shared with the monitor (so plan spans nest
        #: under the service's epoch spans), ringed through a flight
        #: recorder that dumps at parity failures when ``flight_dump``
        #: names a path.  Timing is trace metadata only — the evidence
        #: trail is byte-identical traced or not.
        self.flight_dump = flight_dump
        self.recorder = FlightRecorder()
        self.tracer = self.recorder.attach(
            TraceContext("s", enabled=trace)
        )
        self.monitor = Monitor(
            self.keystore,
            rng_seed=rng_seed,
            max_work_per_epoch=max_work,
            store=EvidenceStore(self.keystore, max_events=max_events),
            tracer=self.tracer,
        ).attach(network)
        #: accountability ledger over the service's evidence trail:
        #: ``None`` (off), ``True`` (default policy) or a
        #: :class:`~repro.ledger.levels.LedgerPolicy`.  When on, the
        #: monitor plans with a trust-aware
        #: :class:`~repro.ledger.feedback.VerificationIntensity`, and
        #: served adjudications feed slashing back into the ledger.
        self.ledger = None
        if ledger is not None:
            from repro.ledger import TrustLedger, VerificationIntensity
            from repro.ledger.levels import LedgerPolicy

            policy = LedgerPolicy() if ledger is True else ledger
            self.ledger = TrustLedger(policy).attach(self.monitor.evidence)
            self.monitor.intensity = VerificationIntensity(
                policy, seed=rng_seed, ledger=self.ledger
            )
        self.network = network
        self.executor = ShardExecutor(shards, backend=backend)
        self.admission = make_admission(admission)
        self.queue_depth = queue_depth
        self.batch_max = batch_max
        self.parity_sample = parity_sample
        self.metrics = metrics if metrics is not None else ClusterMetrics()
        self.metrics.placement = self.executor
        self.metrics.admission = self.admission
        #: the self-regulating control plane: ``None`` (off), ``True``
        #: (default :class:`~repro.control.controller.ControlPolicy`)
        #: or a ``ControlPolicy``.  Fed from epoch walls and queue
        #: depth; ticked after every epoch — its severity feeds the
        #: admission policy
        #: (:class:`~repro.control.policies.AdaptiveAdmission`).  A
        #: stateless pool has no placement to move, so no shard loads
        #: are fed and no placement decision is ever applied.
        self.controller = None
        if controller is not None:
            from repro.control.controller import ControlPolicy, Controller

            policy = (
                ControlPolicy() if controller is True else controller
            )
            self.controller = Controller(policy)
            self.controller.tracer = self.tracer
        self.metrics.control = self.controller
        self._queue: Optional[AdmissionQueue] = None
        self._dispatcher: Optional[asyncio.Task] = None

    # -- configuration -------------------------------------------------------

    def policy(self, asn: str, spec, **options):
        """Register a promise policy (passthrough to the monitor)."""
        return self.monitor.policy(asn, spec, **options)

    @property
    def evidence(self) -> EvidenceStore:
        return self.monitor.evidence

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "VerificationService":
        if self._dispatcher is not None:
            raise RuntimeError("service is already started")
        # warm the worker pool before the loop owns any helper threads,
        # so process workers fork from a single-threaded parent
        self.executor.warm()
        self._queue = AdmissionQueue(
            self.admission,
            self.metrics,
            depth=self.queue_depth,
            coalesce_max=self.batch_max,
            controller=self.controller,
        )
        #: set by ``submit_nowait`` (there is work) / by the dispatcher
        #: (the queue is drained and nothing is in flight)
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        return self

    async def stop(self, *, drain: bool = True) -> None:
        if self._dispatcher is None:
            return
        if drain:
            await self.drain()
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        self._queue = None
        # the service owns its worker pool; a later start() re-warms it
        self.executor.backend.close()

    async def drain(self) -> None:
        """Wait until every admitted request has been served."""
        if self._queue is not None:
            await self._idle.wait()

    # -- admission -----------------------------------------------------------

    def submit_nowait(
        self, request, *, net_delay: float = 0.0
    ) -> "asyncio.Future[Completion]":
        """Admit one request, or raise :class:`AdmissionError`.

        Returns a future resolving to the request's
        :class:`Completion` — the open-loop load generator fires
        requests without awaiting them.
        """
        if self._queue is None:
            raise RuntimeError("service is not started")
        future = asyncio.get_running_loop().create_future()
        self._queue.submit(
            request, net_delay, functools.partial(_settle, future)
        )
        self._idle.clear()
        self._wakeup.set()
        return future

    async def request(self, request, *, net_delay: float = 0.0) -> Completion:
        """Admit one request and await its completion."""
        return await self.submit_nowait(request, net_delay=net_delay)

    # -- the dispatcher ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        queue = self._queue
        while True:
            self._wakeup.clear()
            group = queue.next_group()
            if not group:
                self._idle.set()
                await self._wakeup.wait()
                continue
            try:
                payload = await self._serve_group(group)
            except Exception as exc:  # resolve, never hang the clients
                queue.fail(group, exc)
            else:
                queue.resolve(group, payload)

    async def _serve_group(self, group: List[Ticket]):
        """Do one unit of work: queries answer on the loop, epochs and
        adjudication run in a worker thread."""
        request = group[0].request
        if isinstance(request, QueryRequest):
            return answer_query(self.evidence, request)
        if isinstance(request, AdjudicateRequest):
            return await asyncio.to_thread(self._answer_adjudicate, request)
        if isinstance(request, ChurnRequest):
            with self.tracer.span(
                "group", component="serve", coalesced=len(group)
            ):
                return await asyncio.to_thread(
                    self._run_churn_group, [t.request for t in group]
                )
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _run_churn_group(
        self, requests: List[ChurnRequest]
    ) -> EpochOutcome:
        for request in requests:
            for step in request.steps:
                apply_step(step, self.network)
            for asn, prefix in request.marks:
                self.monitor.mark(asn, prefix)
        self.network.run_to_quiescence()
        outcome = EpochOutcome(coalesced=len(requests))
        # a work bound may defer pairs; drain within the group so
        # every admitted churn request is fully audited when its
        # future resolves.  Metrics absorb each epoch as it lands,
        # so a failure later in the group cannot leave recorded
        # evidence unaccounted for.
        while True:
            report, slices = self._run_epoch_sharded()
            outcome.reports.append(report)
            outcome.slices.extend(slices)
            self.metrics.note_epoch(
                report,
                coalesced=len(requests) if len(outcome.reports) == 1 else 0,
            )
            if not self.monitor.pending():
                break
        for request in requests:
            for probe in request.probes:
                outcome.probe_events.append(
                    self.monitor.audit_once(
                        probe.asn,
                        probe.prefix,
                        probe.recipient,
                        prover=(
                            probe.prover(self.keystore)
                            if probe.prover is not None
                            else None
                        ),
                        max_length=probe.max_length,
                    )
                )
        if outcome.probe_events:
            self.metrics.note_probes(outcome.probe_events)
        return outcome

    # -- request handlers ----------------------------------------------------

    def _answer_adjudicate(self, request: AdjudicateRequest):
        payload = answer_adjudicate(self.evidence, request)
        if self.ledger is not None:
            self.ledger.fold_adjudications(payload)
            self.admission.update(self.ledger.trust_map())
        return payload

    # -- the sharded epoch pipeline ------------------------------------------

    def _run_epoch_sharded(self):
        """One epoch: plan centrally, verify on shards, merge in order.
        Returns ``(report, slices)`` — the merged
        :class:`~repro.audit.events.EpochReport` plus per-shard
        :class:`~repro.audit.events.SliceStats`."""
        epoch_span = self.tracer.begin("epoch", component="serve")
        plan = self.monitor.plan_epoch()
        epoch_span.epoch = plan.epoch
        try:
            fresh = plan.fresh_entries()
            # named choosers resolve through the registry inside the
            # worker, so they ship; live callables (which may not
            # pickle) stay on the monitor's own wire path
            shardable = [
                (i, e) for i, e in fresh if _ships_to_shard(e.chooser)
            ]
            local_entries = [
                (i, e) for i, e in fresh if not _ships_to_shard(e.chooser)
            ]
            neighbor_counts = {
                entry.item.spec.prover: len(
                    self.network.transport.neighbors(entry.item.spec.prover)
                )
                for _, entry in shardable
            }
            with self.tracer.span(
                "shard-exec", component="serve", epoch=plan.epoch,
                tasks=len(shardable),
            ):
                batches = self.executor.execute(
                    self.keystore, shardable, self.rng_seed,
                    neighbor_counts,
                )
            sharded = {
                position: result
                for batch in batches
                for position, result in batch.items()
            }
            with self.tracer.span(
                "local", component="serve", epoch=plan.epoch,
                tasks=len(local_entries),
            ):
                local = {
                    position: self.monitor.run_planned_round(entry)
                    for position, entry in local_entries
                }
            with self.tracer.span(
                "merge", component="serve", epoch=plan.epoch
            ):
                report = merge.fold_plan(
                    self.monitor, plan, {**sharded, **local}
                )
        except Exception:
            # planning consumed the dirty marks; a failed execution must
            # not leave an audit hole, so the planned pairs go back on
            # the queue (a later epoch re-audits them from scratch —
            # at-least-once, never silently-never)
            for entry in plan.entries:
                self.monitor.mark(entry.item.asn, entry.item.prefix)
            self.tracer.finish(epoch_span, status="error")
            raise
        # the one obs timer: the epoch span both frames the trace and
        # pins the report's wall
        self.tracer.finish(epoch_span)
        report.wall_seconds = epoch_span.duration
        slices = []
        for shard, batch in enumerate(batches):
            self.metrics.note_worker(shard, len(batch))
            shard_wall = sum(
                stats.wall_seconds for _, stats in batch.values()
            )
            self.tracer.event(
                "shard", component="serve", epoch=report.epoch,
                worker=shard, events=len(batch), wall=shard_wall,
            )
            slices.append(SliceStats(
                worker=shard,
                epoch=report.epoch,
                events=len(batch),
                fresh=len(batch),
                reused=0,
                wall_seconds=shard_wall,
            ))
        self._parity_check(plan, sharded)
        if self.controller is not None:
            self.controller.observe_epoch(
                wall_seconds=report.wall_seconds,
                worker_walls={s.worker: s.wall_seconds for s in slices},
            )
            self._queue.control_tick()
        if self.ledger is not None:
            # refresh the trust-tiered door with trust as of this epoch
            self.admission.update(self.ledger.trust_map())
        return report, slices

    def _parity_check(self, plan: EpochPlan, outcomes) -> None:
        """Re-prove a sample of fresh verdicts in-process and compare.

        Catches anything that could make a shard diverge from the
        planner's promise — pickling loss, worker nondeterminism, a bad
        merge — without paying for a full shadow monitor.  Failures are
        counted (never raised): the CI smoke job asserts the counter is
        zero, and operators can alert on it.
        """
        if self.parity_sample < 1:
            return
        checked = failed = 0
        sampled = sorted(outcomes)[:: self.parity_sample]
        for position in sampled:
            report, _ = outcomes[position]
            entry = plan.entries[position]
            replay, _ = run_offwire_round(
                self.keystore,
                entry.item.spec,
                entry.item.routes,
                round=entry.round,
                rng_seed=self.rng_seed,
                chooser=entry.chooser,
            )
            checked += 1
            if not reports_match(replay, report):
                failed += 1
        self.metrics.note_parity(checked, failed)
        if failed:
            self.tracer.event(
                "parity-failure", component="serve",
                epoch=plan.epoch, checked=checked, failed=failed,
            )
            if self.flight_dump:
                self.recorder.dump(
                    self.flight_dump,
                    f"{failed} of {checked} parity self-checks failed",
                )
