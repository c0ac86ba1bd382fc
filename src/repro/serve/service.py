"""The verification service: an asyncio front-end over the audit plane.

One long-lived :class:`VerificationService` fronts one
:class:`~repro.bgp.network.BGPNetwork`'s monitor.  The request
lifecycle is **admit → shard → verify → merge**:

* **admit** — requests (:class:`ChurnRequest`, :class:`QueryRequest`,
  :class:`AdjudicateRequest`) enter a bounded admission queue; a full
  queue rejects at the door (:class:`AdmissionError`) instead of
  building unbounded backlog — the open-loop load generator measures
  exactly this behaviour;
* **shard** — the dispatcher coalesces adjacent churn requests into one
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
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.audit.events import EpochOutcome, SliceStats
from repro.audit.monitor import EpochPlan, Monitor
from repro.audit.store import EvidenceStore
from repro.audit.wire import reports_match, run_offwire_round
from repro.bgp.network import BGPNetwork
from repro.cluster.admission import ShedError, make_admission
from repro.cluster.requests import (
    AdjudicateRequest,
    AdmissionError,
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
from repro.serve.metrics import ServeMetrics
from repro.serve.sharding import ShardExecutor

__all__ = ["VerificationService"]


@dataclass
class _Ticket:
    request: object
    future: "asyncio.Future[Completion]"
    enqueued: float
    net_delay: float = 0.0


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
    deadline-based shedding, or per-request-type priorities.
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
        metrics: Optional[ServeMetrics] = None,
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
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.metrics.shards = shards
        #: the self-regulating control plane: ``None`` (off), ``True``
        #: (default :class:`~repro.control.controller.ControlPolicy`)
        #: or a ``ControlPolicy``.  Fed from epoch walls, per-shard
        #: loads and queue depth; ticked after every epoch — its
        #: severity feeds any admission policy exposing ``update_signals``
        #: (:class:`~repro.control.policies.AdaptiveAdmission`).
        self.controller = None
        if controller is not None:
            from repro.control.controller import ControlPolicy, Controller

            policy = (
                ControlPolicy() if controller is True else controller
            )
            self.controller = Controller(policy)
            self.controller.tracer = self.tracer
        self.metrics.control = self.controller
        self._queue: Optional[asyncio.Queue] = None
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
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
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
            await self._queue.join()

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
        if not self.admission.at_door_request(
            request, self._queue.qsize(), self.queue_depth
        ):
            self.metrics.reject(request.kind)
            raise AdmissionError(
                f"admission refused ({request.kind}, queue "
                f"{self._queue.qsize()}/{self.queue_depth})"
            )
        ticket = _Ticket(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued=time.perf_counter(),
            net_delay=net_delay,
        )
        try:
            self._queue.put_nowait(ticket)
        except asyncio.QueueFull:
            self.metrics.reject(request.kind)
            raise AdmissionError(
                f"admission queue full (depth {self.queue_depth})"
            ) from None
        self.metrics.admit(request.kind)
        if self.controller is not None:
            self.controller.observe_queue_depth(
                self._queue.qsize(), self.queue_depth
            )
        return ticket.future

    async def request(self, request, *, net_delay: float = 0.0) -> Completion:
        """Admit one request and await its completion."""
        return await self.submit_nowait(request, net_delay=net_delay)

    # -- the dispatcher ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        queue = self._queue
        while True:
            batch = [await queue.get()]
            while len(batch) < self.batch_max:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._process_batch(batch)
            finally:
                for _ in batch:
                    queue.task_done()

    async def _process_batch(self, batch: List[_Ticket]) -> None:
        index = 0
        while index < len(batch):
            ticket = batch[index]
            if isinstance(ticket.request, ChurnRequest):
                group = [ticket]
                index += 1
                while index < len(batch) and isinstance(
                    batch[index].request, ChurnRequest
                ):
                    group.append(batch[index])
                    index += 1
                group = [t for t in group if not self._shed(t)]
                if group:
                    await self._serve_churn_group(group)
            else:
                if not self._shed(batch[index]):
                    await self._serve_one(batch[index])
                index += 1

    def _shed(self, ticket: _Ticket) -> bool:
        """Apply the admission policy's dispatch-time decision: a shed
        ticket resolves with :class:`~repro.cluster.admission.ShedError`
        and its request is never applied."""
        waited = time.perf_counter() - ticket.enqueued
        if self.admission.at_dispatch(ticket.request.kind, waited):
            return False
        self.metrics.shed_one(ticket.request.kind)
        if not ticket.future.done():
            ticket.future.set_exception(
                ShedError(
                    f"{ticket.request.kind} request shed after "
                    f"{waited:.3f}s in queue"
                )
            )
        return True

    async def _serve_churn_group(self, group: List[_Ticket]) -> None:
        started = time.perf_counter()

        def run() -> EpochOutcome:
            for ticket in group:
                request = ticket.request
                for step in request.steps:
                    apply_step(step, self.network)
                for asn, prefix in request.marks:
                    self.monitor.mark(asn, prefix)
            self.network.run_to_quiescence()
            outcome = EpochOutcome(coalesced=len(group))
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
                    coalesced=len(group) if len(outcome.reports) == 1
                    else 0,
                )
                if not self.monitor.pending():
                    break
            for ticket in group:
                for probe in ticket.request.probes:
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

        group_span = self.tracer.begin(
            "group", component="serve", coalesced=len(group)
        )
        try:
            outcome = await asyncio.to_thread(run)
        except Exception as exc:  # resolve, never hang the clients
            self.tracer.finish(group_span, status="error")
            self._fail_group(group, exc)
            return
        self.tracer.finish(group_span)
        finished = time.perf_counter()
        for ticket in group:
            self._resolve(ticket, outcome, started, finished)

    def _fail_group(self, group: List[_Ticket], exc: Exception) -> None:
        for ticket in group:
            if not ticket.future.done():
                ticket.future.set_exception(exc)

    async def _serve_one(self, ticket: _Ticket) -> None:
        started = time.perf_counter()
        request = ticket.request
        try:
            if isinstance(request, QueryRequest):
                payload = self._answer_query(request)
            elif isinstance(request, AdjudicateRequest):
                payload = await asyncio.to_thread(
                    self._answer_adjudicate, request
                )
            else:
                raise TypeError(
                    f"unknown request type {type(request).__name__}"
                )
        except Exception as exc:
            if not ticket.future.done():
                ticket.future.set_exception(exc)
            return
        self._resolve(ticket, payload, started, time.perf_counter())

    def _resolve(
        self, ticket: _Ticket, payload, started: float, finished: float
    ) -> None:
        completion = Completion(
            request=ticket.request,
            payload=payload,
            enqueued=ticket.enqueued,
            started=started,
            finished=finished,
            net_delay=ticket.net_delay,
        )
        self.metrics.complete(
            ticket.request.kind,
            latency=completion.latency,
            queue_delay=completion.queue_delay,
            service=completion.service_time,
        )
        if not ticket.future.done():
            ticket.future.set_result(completion)

    # -- request handlers ----------------------------------------------------

    def _answer_query(self, request: QueryRequest):
        return answer_query(self.evidence, request)

    def _answer_adjudicate(self, request: AdjudicateRequest):
        payload = answer_adjudicate(self.evidence, request)
        if self.ledger is not None:
            self.ledger.fold_adjudications(payload)
            if hasattr(self.admission, "update"):
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
            self.metrics.note_shard(shard, len(batch))
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
                shard_loads={s.worker: s.fresh for s in slices},
            )
            self._control_tick()
        if self.ledger is not None and hasattr(self.admission, "update"):
            # refresh the trust-tiered door with trust as of this epoch
            self.admission.update(self.ledger.trust_map())
        return report, slices

    def _control_tick(self) -> None:
        """One controller evaluation at the epoch boundary."""
        decisions = self.controller.tick()
        if hasattr(self.admission, "update_signals"):
            self.admission.update_signals(
                severity=self.controller.severity,
                stale_after=self.controller.policy.stale_after,
            )
        for decision in decisions:
            if decision.action in self.controller.PLACEMENT_ACTIONS:
                # a stateless pool under one process has no slices to
                # move and no fleet to grow: the cluster's moves
                decision.applied = False

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
