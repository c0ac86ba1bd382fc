"""Sharding: fanning a planned epoch's fresh rounds across workers.

The paper's cost model makes one PVR round the unit of work, and the
planner (:meth:`repro.audit.monitor.Monitor.plan_epoch`) fixes every
fresh round's number — hence its nonce stream — centrally, so *who*
executes a planned round cannot matter.  The worker pool here keeps
nothing between epochs, so there is nothing to place (ownership of
(AS, prefix) slices is :mod:`repro.cluster`'s concern, where workers
hold per-region state): :class:`ShardExecutor` deals a plan's *fresh*
entries evenly into one batch per shard and runs each batch inside a
worker process of its :class:`ShardPool`.  Each task is one
:func:`repro.audit.wire.run_offwire_round` — an in-memory session that
*replays the wire cost model* — so a sharded round reports the same
verdict bytes and the same byte/message counts as the serial wire path,
whatever the interleaving.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.monitor import PlannedItem
from repro.audit.wire import RoundStats, run_offwire_round
from repro.crypto.keystore import KeyStore
from repro.pvr.session import PromiseSpec, SessionReport

__all__ = ["RoundResult", "ShardExecutor", "ShardPool", "ShardTask"]

#: what one executed round yields, on or off the wire
RoundResult = Tuple[SessionReport, RoundStats]


@dataclass(frozen=True)
class ShardTask:
    """One picklable fresh verification: the plan entry's wire-free core.

    ``position`` is the entry's index in the epoch plan — the merge key
    that puts out-of-order shard results back into canonical order;
    ``chooser`` is a :mod:`repro.audit.choosers` registry name (named
    choosers ship, live callables stay on the monitor's wire path);
    ``neighbors`` is the prover's neighbor count, the commit-broadcast
    fan-out the replayed wire cost model prices.
    """

    position: int
    spec: PromiseSpec
    routes: Tuple[Tuple[str, object], ...]
    round: int
    chooser: Optional[str] = None
    neighbors: int = 0


def _run_shard_batch(payload) -> Dict[int, RoundResult]:
    """Execute one batch serially against one keystore snapshot, on
    the nonce streams ``rng_seed`` promised the planner; returns
    ``position → (report, stats)``.

    Module-level so the process pool can pickle it by reference.
    """
    keystore, rng_seed, tasks = payload
    return {
        task.position: run_offwire_round(
            keystore,
            task.spec,
            dict(task.routes),
            round=task.round,
            rng_seed=rng_seed,
            chooser=task.chooser,
            neighbor_count=task.neighbors,
        )
        for task in tasks
    }


class ShardPool:
    """Where shard batches run: inline (``"serial"``) or on a lazily
    started pool of worker processes (``"process"`` / ``"process:N"``).

    ``map`` returns results **in input order**, so the executor can
    merge worker output deterministically; ``close`` is idempotent and
    a closed pool restarts on the next ``map``.
    """

    def __init__(self, spec: str) -> None:
        kind, _, workers = spec.partition(":")
        if kind not in ("serial", "process"):
            raise ValueError(
                f"unknown backend {spec!r}; expected serial or process[:N]"
            )
        self._workers = int(workers) if workers else None
        if self._workers is not None and self._workers < 1:
            raise ValueError(f"backend spec {spec!r} needs >= 1 worker")
        self._process = kind == "process"
        self._executor: Optional[ProcessPoolExecutor] = None

    def map(self, fn: Callable, items: Sequence) -> List:
        if not self._process:
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        try:
            # Executor.map preserves input order by contract.
            return list(self._executor.map(fn, items))
        except BrokenProcessPool:
            # a dead worker leaves the executor unusable for good; drop
            # it so the next map starts a fresh pool
            self.close()
            raise

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ShardExecutor:
    """Fan an epoch plan's fresh entries out across shard workers.

    The fresh entries are dealt, contiguous in plan order, into
    ``shards`` batches whose sizes differ by at most one; each batch
    carries the keystore snapshot it needs and executes as one serial
    unit.  ``backend`` defaults to one worker process per shard
    (``"process:<shards>"``), or runs everything inline for a single
    shard — the degenerate configuration the parity suite compares
    against.
    """

    def __init__(self, shards: int, *, backend: Optional[str] = None) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        if backend is None:
            backend = "serial" if shards == 1 else f"process:{shards}"
        self.backend = ShardPool(backend)

    def describe(self) -> Dict[str, object]:
        """The metrics snapshot's ``placement.spec``."""
        return {"shards": self.shards}

    def warm(self) -> None:
        """Start the worker pool now, from the calling thread.

        The service calls this before its asyncio dispatcher exists, so
        process workers fork from a single-threaded parent.
        """
        self.backend.map(len, [()])

    def plan_tasks(
        self,
        fresh: Sequence[Tuple[int, PlannedItem]],
        neighbor_counts: Optional[Dict[str, int]] = None,
    ) -> List[List[ShardTask]]:
        """Deal fresh plan entries into ``shards`` even batches."""
        neighbor_counts = neighbor_counts or {}
        tasks = [
            ShardTask(
                position=position,
                spec=entry.item.spec,
                routes=tuple(sorted(entry.item.routes.items())),
                round=entry.round,
                chooser=entry.chooser,
                neighbors=neighbor_counts.get(entry.item.spec.prover, 0),
            )
            for position, entry in fresh
        ]
        size, extra = divmod(len(tasks), self.shards)
        bounds = [i * size + min(i, extra) for i in range(self.shards + 1)]
        return [tasks[a:b] for a, b in zip(bounds, bounds[1:])]

    def execute(
        self,
        keystore: KeyStore,
        fresh: Sequence[Tuple[int, PlannedItem]],
        rng_seed: object,
        neighbor_counts: Optional[Dict[str, int]] = None,
    ) -> List[Dict[int, RoundResult]]:
        """Run the fresh entries; returns one ``position → (report,
        stats)`` mapping per non-empty batch, in plan order.

        Worker crypto counts are merged back into ``keystore`` in plan
        order, so the service's op totals match a serial monitor's.
        """
        payloads = [
            (keystore, rng_seed, tuple(batch))
            for batch in self.plan_tasks(fresh, neighbor_counts)
            if batch
        ]
        results = self.backend.map(_run_shard_batch, payloads)
        for batch in results:
            for _, stats in batch.values():
                keystore.add_counts(stats.signatures, stats.verifications)
        return results
