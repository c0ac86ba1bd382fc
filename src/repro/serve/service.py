"""The verification service: an asyncio front-end over the audit plane.

One long-lived :class:`VerificationService` fronts one
:class:`~repro.bgp.network.BGPNetwork`'s monitor.  It adds two things
to the serving substrate of :mod:`repro.cluster`:

* an asyncio host for the shared
  :class:`~repro.cluster.admission.AdmissionQueue` (door, coalescing
  cap, dispatch-time shedding, controller tick — the same plane the
  cluster coordinator hosts): requests (:class:`ChurnRequest`,
  :class:`QueryRequest`, :class:`AdjudicateRequest`) resolve futures,
  and a full queue rejects at the door (:class:`AdmissionError`)
  instead of building unbounded backlog;
* ``asyncio.to_thread`` around the shared
  :class:`~repro.cluster.pipeline.Pipeline` — plan centrally, run the
  fresh rounds on the stateless worker pool, fold in plan order,
  byte-identical to an unsharded monitor run — so the event loop stays
  responsive to admission while RSA grinds.  Only one epoch runs at a
  time: epochs must see a quiescent network, exactly the constraint
  :meth:`~repro.audit.monitor.Monitor.run_epoch` documents.

Queries and adjudication are answered from the evidence store between
epochs, so readers always see a consistent trail.
"""

from __future__ import annotations

import asyncio
import functools
from typing import List, Optional

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.bgp.network import BGPNetwork
from repro.cluster.admission import AdmissionQueue, Ticket, make_admission
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.pipeline import Pipeline
from repro.cluster.pool import ShardExecutor
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
    Completion,
    QueryRequest,
    answer_query,
)
from repro.crypto.keystore import KeyStore
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext

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


class VerificationService:
    """The asynchronous serving layer over one audit monitor.

    ``shards`` sizes the stateless worker pool each epoch's fresh
    rounds are dealt across (``backend``: ``"serial"`` or
    ``"process[:N]"``).  ``admission`` (an
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
        #: recorder that dumps at worker reaps and parity failures when
        #: ``flight_dump`` names a path.  Timing is trace metadata only
        #: — the evidence trail is byte-identical traced or not.
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
        self.executor = ShardExecutor(
            shards, self.keystore, rng_seed, backend=backend
        )
        self.admission = make_admission(admission)
        self.queue_depth = queue_depth
        self.batch_max = batch_max
        self.metrics = metrics if metrics is not None else ClusterMetrics()
        #: the self-regulating control plane: ``None`` (off), ``True``
        #: (default :class:`~repro.control.controller.ControlPolicy`)
        #: or a ``ControlPolicy``.  Fed from epoch walls and queue
        #: depth; ticked after every churn group — its severity feeds
        #: the admission policy
        #: (:class:`~repro.control.policies.AdaptiveAdmission`).
        self.controller = None
        if controller is not None:
            from repro.control.controller import ControlPolicy, Controller

            self.controller = Controller(
                ControlPolicy() if controller is True else controller
            )
        self._pipeline = Pipeline(
            self.monitor,
            self.executor,
            self.metrics,
            self.admission,
            self.recorder,
            self.tracer,
            component="serve",
            ledger=self.ledger,
            controller=self.controller,
            parity_sample=parity_sample,
            flight_dump=flight_dump,
        )
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
            return await asyncio.to_thread(
                self._pipeline.answer_adjudicate, request
            )
        if isinstance(request, ChurnRequest):
            with self.tracer.span(
                "group", component="serve", coalesced=len(group)
            ):
                outcome = await asyncio.to_thread(
                    self._pipeline.serve_churn_group,
                    [t.request for t in group],
                )
            self._queue.control_tick()
            return outcome
        raise TypeError(f"unknown request type {type(request).__name__}")
