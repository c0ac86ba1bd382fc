"""The one round pool: dealing a plan's fresh rounds to stateless
workers, and surviving the loss of any of them.

:class:`ShardExecutor` turns an epoch plan's fresh entries into :class:`~repro.cluster.worker.ShardTask` batches — dealt evenly,
contiguous in plan order, sizes differing by at most one — and hands
them to its :class:`ShardPool`.  Workers hold no per-pair state, so
there is nothing to place and nothing to rebalance.

:class:`ShardPool` owns the workers (``"inline"``: in-process;
``"process"``: forked, one pipe each) and the failure handling.  A
worker is declared dead when its pipe closes, when it has not finished
``epoch_deadline`` seconds after dispatch, or when it has sent no
result frame for ``5 × heartbeat_interval`` seconds.  The positions it
left without a result are re-run on a survivor under the same round
number and nonce seed — byte-identical by construction — and a fresh
worker is forked in its place: there is nothing to snapshot, replay or
install.  More than ``max_failures_per_epoch`` deaths in one epoch is a
loud :class:`ClusterError`.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.audit.events import SliceStats
from repro.audit.monitor import PlannedItem
from repro.audit.wire import RoundResult
from repro.crypto.keystore import KeyStore
from repro.obs.trace import CLOCK, Span, TraceContext

from repro.cluster.worker import ShardTask, _InlineWorker, _ProcessWorker

__all__ = ["ClusterError", "ShardExecutor", "ShardPool"]

#: what one pool run hands back: ``position → (report, stats)``, the
#: per-worker execution stats, and ``(worker, reason)`` per death
PoolRun = Tuple[
    Dict[int, RoundResult], List[SliceStats], List[Tuple[int, str]]
]


class ClusterError(RuntimeError):
    """A worker failed unrecoverably, or more workers died in one
    epoch than the failure budget allows."""


@dataclass
class _Slice:
    """One worker's in-flight batch."""

    worker: int
    want: Set[int]
    span: Span
    got: int = 0


@dataclass
class _Drive:
    """One epoch's collection state, shared by dispatch, retry and
    reap."""

    epoch: int
    tracer: TraceContext
    on_reap: Callable[[str], None]
    results: Dict[int, RoundResult] = field(default_factory=dict)
    pieces: List[_Slice] = field(default_factory=list)
    slices: List[SliceStats] = field(default_factory=list)
    reaped: Dict[int, str] = field(default_factory=dict)
    backfill: bool = False


class ShardPool:
    """``size`` stateless round workers behind one transport."""

    def __init__(
        self,
        transport: str,
        size: int,
        keystore: KeyStore,
        rng_seed: object,
        *,
        epoch_deadline: Optional[float] = None,
        heartbeat_interval: float = 0.0,
        max_failures_per_epoch: int = 1,
        chaos=None,
    ) -> None:
        if transport not in ("process", "inline"):
            raise ValueError(
                f"unknown transport {transport!r}; "
                f"expected 'process' or 'inline'"
            )
        if size < 1:
            raise ValueError(f"worker count must be >= 1, got {size}")
        self.size = size
        self._context = (
            multiprocessing.get_context("fork") if transport == "process" else None
        )
        self._worker_args = (keystore, rng_seed)
        self.epoch_deadline = epoch_deadline
        self.heartbeat_interval = heartbeat_interval
        self.max_failures_per_epoch = max_failures_per_epoch
        self.chaos = chaos
        self._workers: list = []

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int):
        args = (*self._worker_args, index, self.chaos)
        if self._context is None:
            return _InlineWorker(*args)
        return _ProcessWorker(self._context, *args, self._workers)

    def start(self) -> None:
        """Start the workers (no-op when running)."""
        while len(self._workers) < self.size:
            self._workers.append(self._spawn(len(self._workers)))

    def close(self) -> None:
        """Stop every worker (idempotent); the next run restarts them."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.shutdown()

    # -- one epoch's fresh rounds --------------------------------------------

    def run(
        self,
        epoch: int,
        batches: Sequence[Sequence[ShardTask]],
        tracer: TraceContext,
        on_reap: Callable[[str], None],
    ) -> PoolRun:
        """Run batch ``i`` (of at most ``size``) on worker ``i``; re-run
        what a dead worker left unfinished on a survivor; replace the
        dead."""
        self.start()
        assigned = {
            worker: list(batch) for worker, batch in enumerate(batches) if batch
        }
        drive = _Drive(epoch, tracer, on_reap)
        try:
            while assigned:
                if self._context is None:
                    self._drive_inline(drive, assigned)
                else:
                    self._drive_process(drive, assigned)
                self._check_budget(drive)
                missing = [
                    task
                    for tasks in assigned.values()
                    for task in tasks
                    if task.position not in drive.results
                ]
                survivors = [
                    i for i in range(self.size) if i not in drive.reaped
                ]
                if missing and not survivors:
                    raise ClusterError(
                        "every worker died before finishing the epoch"
                    )
                assigned = {survivors[0]: missing} if missing else {}
                drive.backfill = True
        except BaseException:
            # frames of a failed epoch must never meet the next one
            self.close()
            for piece in drive.pieces:
                tracer.finish(piece.span, status="error")
            raise
        for index, reason in sorted(drive.reaped.items()):
            with tracer.span(
                "respawn", component="pool", worker=index, reason=reason
            ):
                self._workers[index] = self._spawn(index)
        return drive.results, drive.slices, sorted(drive.reaped.items())

    def _check_budget(self, drive: _Drive) -> None:
        if len(drive.reaped) > self.max_failures_per_epoch:
            raise ClusterError(
                f"{len(drive.reaped)} workers ({sorted(drive.reaped)}) "
                f"died in one epoch, above max_failures_per_epoch="
                f"{self.max_failures_per_epoch}: "
                + "; ".join(
                    f"worker {i}: {reason}"
                    for i, reason in sorted(drive.reaped.items())
                )
            )

    def _open(self, drive: _Drive, index: int, tasks) -> _Slice:
        piece = _Slice(
            worker=index,
            want={task.position for task in tasks},
            span=drive.tracer.begin(
                "slice", component="pool", epoch=drive.epoch, worker=index,
                detached=True, tasks=len(tasks),
            ),
        )
        drive.pieces.append(piece)
        return piece

    def _ingest(self, drive: _Drive, piece: _Slice, frame: tuple) -> None:
        if frame[0] == "error":
            raise ClusterError(f"worker {piece.worker} failed:\n{frame[1]}")
        position, report, stats = frame
        if position not in piece.want:
            raise ClusterError(
                f"worker {piece.worker} returned position {position}, "
                f"which it was not sent"
            )
        piece.want.discard(position)
        piece.got += 1
        drive.results[position] = (report, stats)

    def _close(self, drive: _Drive, piece: _Slice, status=None) -> None:
        drive.tracer.finish(piece.span, status=status)
        drive.slices.append(
            SliceStats(
                worker=piece.worker,
                epoch=drive.epoch,
                events=piece.got,
                fresh=piece.got,
                reused=0,
                backfilled=piece.got if drive.backfill else 0,
                wall_seconds=piece.span.duration,
            )
        )

    def _reap(self, drive: _Drive, piece: _Slice, reason: str) -> None:
        drive.reaped[piece.worker] = reason
        drive.tracer.event(
            "reap", component="pool", worker=piece.worker, reason=reason
        )
        # dump before the worker's in-flight slice span closes — the
        # forensic record of what it was doing when it died
        drive.on_reap(f"worker {piece.worker} reaped: {reason}")
        self._workers[piece.worker].kill()
        self._close(drive, piece, status="reaped")

    def _drive_inline(self, drive: _Drive, assigned) -> None:
        """Inline collection: each worker runs synchronously at post."""
        for index, tasks in sorted(assigned.items()):
            piece = self._open(drive, index, tasks)
            worker = self._workers[index]
            worker.post((drive.epoch, tasks))
            for frame in worker.frames:
                self._ingest(drive, piece, frame)
            if worker.died is not None:
                self._reap(drive, piece, worker.died)
            else:
                self._close(drive, piece)

    def _drive_process(self, drive: _Drive, assigned) -> None:
        """Process collection: post every batch, then take frames as
        pipes become readable.  A closed pipe, a missed epoch deadline
        or result silence reaps the worker."""
        waiting: Dict[object, _Slice] = {}
        for index, tasks in sorted(assigned.items()):
            piece = self._open(drive, index, tasks)
            try:
                self._workers[index].post((drive.epoch, tasks))
            except OSError:
                self._reap(
                    drive, piece,
                    "pipe closed at dispatch (worker process died)",
                )
            else:
                waiting[self._workers[index].conn] = piece
        start = CLOCK()
        deadline = self.epoch_deadline
        silence = 5 * self.heartbeat_interval
        last_heard = {conn: start for conn in waiting}
        timed = deadline is not None or silence > 0
        while waiting:
            for conn in _connection_wait(
                list(waiting), timeout=0.05 if timed else None
            ):
                piece = waiting[conn]
                try:
                    frame = conn.recv()
                except (EOFError, OSError):
                    del waiting[conn]
                    self._reap(
                        drive, piece,
                        "pipe closed mid-epoch (worker process died)",
                    )
                    continue
                last_heard[conn] = CLOCK()
                self._ingest(drive, piece, frame)
                if not piece.want:
                    del waiting[conn]
                    self._close(drive, piece)
            now = CLOCK()
            for conn, piece in list(waiting.items()):
                if deadline is not None and now - start > deadline:
                    reason = f"missed the {deadline:.3f}s epoch deadline"
                elif 0 < silence < now - last_heard[conn]:
                    reason = (
                        f"heartbeat silent for "
                        f"{now - last_heard[conn]:.3f}s (interval "
                        f"{self.heartbeat_interval:.3f}s)"
                    )
                else:
                    continue
                del waiting[conn]
                self._reap(drive, piece, reason)


class ShardExecutor:
    """Fan an epoch plan's fresh entries out across the round pool.

    ``shards`` is both the number of batches a plan is dealt into and
    the pool's worker count; ``transport`` and the failure knobs are
    the :class:`~repro.cluster.spec.ClusterSpec` fields of the same
    names.
    """

    def __init__(
        self,
        shards: int,
        keystore: KeyStore,
        rng_seed: object,
        *,
        transport: str,
        epoch_deadline: Optional[float] = None,
        heartbeat_interval: float = 0.0,
        max_failures_per_epoch: int = 1,
        chaos=None,
    ) -> None:
        self.shards = shards
        self.keystore = keystore
        self.backend = ShardPool(
            transport,
            shards,
            keystore,
            rng_seed,
            epoch_deadline=epoch_deadline,
            heartbeat_interval=heartbeat_interval,
            max_failures_per_epoch=max_failures_per_epoch,
            chaos=chaos,
        )

    def describe(self) -> Dict[str, object]:
        """The metrics snapshot's ``placement.spec``."""
        return {"shards": self.shards}

    def warm(self) -> None:
        """Start the worker pool now, from the calling thread.

        The coordinator calls this at construction — before an asyncio
        door has run anything in a helper thread — so process workers
        fork from a single-threaded parent.
        """
        self.backend.start()

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
        fresh: Sequence[Tuple[int, PlannedItem]],
        neighbor_counts: Dict[str, int],
        *,
        epoch: int,
        tracer: TraceContext,
        on_reap: Callable[[str], None],
    ) -> PoolRun:
        """Run the fresh entries on the pool.  Worker crypto counts are
        merged back into the keystore, so the host's op totals match a
        serial monitor's."""
        run = self.backend.run(
            epoch, self.plan_tasks(fresh, neighbor_counts), tracer, on_reap
        )
        for _, stats in run[0].values():
            self.keystore.add_counts(stats.signatures, stats.verifications)
        return run
