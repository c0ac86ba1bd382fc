"""The verification service: the asyncio door of a cluster coordinator.

Everything that verifies — monitor, evidence store, ledger, round pool,
pipeline, admission queue, metrics — belongs to one private
:class:`~repro.cluster.cluster.Cluster`; this module adds only what is
asyncio: requests resolve futures, and a dispatcher task runs
``Cluster.serve_group`` in a helper thread, one write group at a time
(epochs must see a quiescent network), so the loop stays responsive to
admission while RSA grinds.  A query's future is already done when
``submit_nowait`` returns: the queue answers reads at the door, from the
trail as of the last committed write group.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Optional

from repro.bgp.network import BGPNetwork
from repro.cluster.admission import Ticket
from repro.cluster.cluster import Cluster
from repro.cluster.requests import Completion, ServiceStopped
from repro.cluster.spec import ClusterSpec

__all__ = ["VerificationService"]


def _settle(future: asyncio.Future, ticket: Ticket) -> None:
    """A ticket's done-callback: settle the client's future."""
    if future.done():  # the client cancelled it
        return
    if ticket.error is not None:
        future.set_exception(ticket.error)
    else:
        future.set_result(ticket.completion)


class VerificationService:
    """The asynchronous door of one private cluster coordinator.

    Keywords are :class:`~repro.cluster.spec.ClusterSpec` fields
    (``shards``: ``workers``, ``batch_max``: ``coalesce_max``);
    ``transport`` defaults to ``"inline"`` for one shard, else
    ``"process"``.  No journal: recovery cannot re-build a live network
    object.  ``stop()`` is terminal, like ``Cluster.stop()``: no caller
    restarts a service, and ``start()`` after it raises.
    """

    def __init__(
        self,
        network: BGPNetwork,
        *,
        shards: int = 1,
        key_bits: int = 512,
        rng_seed: object = 2011,
        queue_depth: int = 64,
        batch_max: int = 16,
        max_events: Optional[int] = None,
        transport: Optional[str] = None,
        parity_sample: int = 0,
        ledger: object = None,
        trace: bool = True,
    ) -> None:
        self.cluster = cluster = Cluster(ClusterSpec(
            network=lambda: network,
            workers=shards,
            transport=transport or ("inline" if shards == 1 else "process"),
            queue_depth=queue_depth,
            rng_seed=rng_seed,
            key_bits=key_bits,
            max_events=max_events,
            parity_sample=parity_sample,
            coalesce_max=batch_max,
            ledger=ledger,
            trace=trace,
        ))
        # the coordinator's own objects, not copies
        self.monitor = cluster.monitor
        self.evidence = cluster.evidence
        self.ledger = cluster.ledger
        self.metrics = cluster.metrics
        self.executor = cluster.executor
        self.recorder = cluster.recorder
        self._queue = cluster.queue
        self._dispatcher: Optional[asyncio.Task] = None
        self._stopped = False

    def policy(self, asn: str, spec, **options):
        """Register a promise policy (passthrough to the monitor)."""
        return self.monitor.policy(asn, spec, **options)

    async def start(self) -> "VerificationService":
        if self._stopped or self._dispatcher is not None:
            raise RuntimeError("service is already started or stopped")
        self._wakeup = asyncio.Event()  # there is work (or a stop)
        self._idle = asyncio.Event()  # drained, nothing in flight
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Close the door, serve what is queued (``drain=False``: fail
        it with :class:`~repro.cluster.requests.ServiceStopped`), wait
        for the group in flight, stop the coordinator.  Terminal."""
        self._stopped = True
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            if not drain:
                self._queue.fail_pending(ServiceStopped("service stopped"))
            self._wakeup.set()
            await dispatcher  # returns once the queue is empty
        self.cluster.stop()

    async def drain(self) -> None:
        """Wait until every admitted request has been served."""
        if self._dispatcher is not None:
            await self._idle.wait()

    def submit_nowait(self, request) -> asyncio.Future:
        """Admit one request, or raise :class:`AdmissionError` (a write
        at a full queue); the future resolves to its
        :class:`Completion` — a read's already has."""
        if self._dispatcher is None:
            raise RuntimeError("service is not running")
        future = asyncio.get_running_loop().create_future()
        self._queue.submit(request, functools.partial(_settle, future))
        self._idle.clear()
        self._wakeup.set()
        return future

    async def request(self, request) -> Completion:
        """Admit one request and await its completion."""
        return await self.submit_nowait(request)

    async def _dispatch_loop(self) -> None:
        queue, serve = self._queue, self.cluster.serve_group
        while True:
            self._wakeup.clear()
            group = queue.next_group()
            if not group:
                self._idle.set()
                if self._stopped:
                    return
                await self._wakeup.wait()
                continue
            try:
                with self.cluster.tracer.span(
                    "group", component="serve", coalesced=len(group)
                ):
                    payload = await asyncio.to_thread(serve, group)
            except Exception as exc:  # resolve, never hang the clients
                queue.fail(group, exc)
            else:
                queue.resolve(group, payload)
