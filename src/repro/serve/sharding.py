"""Sharding: partitioning the audit plane's policy space across workers.

The unit of partition is the **(AS, prefix) pair** — the same key the
monitor's dirty-tracking and incremental cache use.  Two consequences
make it the right shard key:

* every (AS, prefix, policy, recipients) tuple of a pair lands on one
  shard, so the per-tuple reuse cache never needs cross-shard
  coherence;
* hot prefixes (the Zipf head the load generator models) concentrate on
  single shards, which is exactly the hot-region behaviour the
  distributed-aggregation literature warns about — the metrics module
  counts per-shard load so the skew is observable.

*Who* owns a pair is delegated to a
:class:`~repro.cluster.placement.Placement` — the pluggable strategy
object the cluster API introduced.  The default is
:class:`~repro.cluster.placement.StaticHash`, which reproduces the
original fixed ``sha256 % N`` partition bit for bit (:func:`shard_key`,
:func:`shard_of` and :func:`shard_filter` remain as thin façades over
it); pass ``placement=ConsistentHash(...)`` or ``HotSplit(...)`` to the
executor/service for resharding- and skew-aware partitions.

Two consumers:

* :class:`ShardExecutor` — the serving layer's fan-out engine.  It
  takes the *fresh* entries of a centrally planned epoch
  (:meth:`repro.audit.monitor.Monitor.plan_epoch`), groups them by
  placement owner, and runs each shard's batch as one serial unit
  inside a worker process of its :class:`ShardPool`.  Because rounds
  and nonces were pre-allocated by the planner, the outcome is
  byte-identical to serial execution, whatever the
  interleaving — and each worker *replays the wire cost model*
  (:func:`repro.audit.wire.modeled_wire_stats`), so a sharded round
  reports the same byte/message counts as the serial wire path.
* :func:`shard_filter` — a pair filter for *distributed* deployments:
  N pair-filtered monitors over one network each own one shard of the
  policy space (``Monitor(pair_filter=shard_filter(i, n))``), and their
  stores fold back together with
  :meth:`repro.audit.store.EvidenceStore.merged`.  (The full
  multi-process embodiment of this is :mod:`repro.cluster`.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.choosers import resolve as resolve_chooser
from repro.audit.monitor import PlannedItem
from repro.audit.wire import modeled_wire_stats, round_randomness
from repro.cluster.placement import Placement, StaticHash, pair_key
from repro.crypto.keystore import KeyStore
from repro.obs.trace import Stopwatch
from repro.pvr.session import PromiseSpec, SessionReport

__all__ = [
    "ShardExecutor",
    "ShardOutcome",
    "ShardPool",
    "ShardTask",
    "shard_filter",
    "shard_key",
    "shard_of",
]


def shard_key(asn: str, prefix: object) -> int:
    """A stable 64-bit key for one (AS, prefix) pair (façade over
    :func:`repro.cluster.placement.pair_key`)."""
    return pair_key(asn, prefix)


def shard_of(asn: str, prefix: object, shards: int) -> int:
    """Which of ``shards`` statically hashed shards owns the pair —
    the legacy fixed partition, now ``StaticHash(shards).owner``."""
    return StaticHash(shards).owner(asn, prefix)


def shard_filter(index: int, shards: int) -> Callable[[str, object], bool]:
    """A ``Monitor(pair_filter=...)`` predicate selecting one shard of
    the static partition."""
    return StaticHash(shards).pair_filter(index)


@dataclass(frozen=True)
class ShardTask:
    """One picklable fresh verification: the plan entry's wire-free core.

    ``position`` is the entry's index in the epoch plan — the merge key
    that puts out-of-order shard results back into canonical order.
    ``rng_seed`` rides along so the worker derives the exact nonce
    stream (``round_randomness(rng_seed, round)``) the planner promised;
    ``chooser`` is a :mod:`repro.audit.choosers` registry name (named
    choosers ship, live callables stay on the monitor's wire path);
    ``neighbors`` is the prover's neighbor count, the commit-broadcast
    fan-out the replayed wire cost model prices.
    """

    position: int
    shard: int
    spec: PromiseSpec
    routes: Tuple[Tuple[str, object], ...]
    round: int
    rng_seed: object
    chooser: Optional[str] = None
    neighbors: int = 0


@dataclass(frozen=True)
class ShardOutcome:
    """One executed task: the session report plus its cost accounting.

    ``messages``/``bytes`` are the replayed wire cost model's numbers —
    what the round *would* have put on the wire — so sharded epochs
    account transport identically to serial ones.
    """

    position: int
    shard: int
    report: SessionReport
    signatures: int
    verifications: int
    wall_seconds: float
    messages: int = 0
    bytes: int = 0


def _run_shard_batch(payload) -> Tuple[ShardOutcome, ...]:
    """Execute one shard's batch serially against one keystore snapshot.

    Module-level so the process pool can pickle it by reference.
    Each task runs a one-shot in-memory
    :class:`~repro.pvr.engine.VerificationSession` — the audit plane's
    replay property (same spec, round, inputs, nonce stream ⇒ same
    bytes) is what makes this equal to the monitor's wire round; the
    parity suite in ``tests/test_serve.py`` pins it.  The session is
    driven phase by phase so the announcement/view/statement artifacts
    feed the wire cost model; per-task crypto counts come from a fresh
    worker view per task.
    """
    from repro.pvr.engine import VerificationSession

    keystore, tasks = payload
    outcomes: List[ShardOutcome] = []
    for task in tasks:
        view = keystore.worker_view()
        with Stopwatch() as watch:
            session = VerificationSession(
                view,
                task.spec,
                round=task.round,
                chooser=resolve_chooser(task.chooser),
                random_bytes=round_randomness(task.rng_seed, task.round),
            )
            announcements = session.announce(dict(task.routes))
            statement = session.commit()
            views = session.disclose()
            report = session.verify()
            messages, wire_bytes = modeled_wire_stats(
                session, announcements, views, statement, task.neighbors
            )
        outcomes.append(
            ShardOutcome(
                position=task.position,
                shard=task.shard,
                report=report,
                signatures=view.sign_count,
                verifications=view.verify_count,
                wall_seconds=watch.seconds,
                messages=messages,
                bytes=wire_bytes,
            )
        )
    return tuple(outcomes)


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
        # Executor.map preserves input order by contract.
        return list(self._executor.map(fn, items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ShardExecutor:
    """Fan an epoch plan's fresh entries out across shard workers.

    ``placement`` fixes the partition (default: the static hash over
    ``shards`` shards); ``backend`` defaults to one worker process per
    shard (``"process:<shards>"``), or runs everything inline for a
    single shard — the degenerate configuration the parity suite
    compares against.  Each shard's batch executes as one serial unit,
    so per-shard work never interleaves and adding shards adds genuine
    process parallelism.  ``placement`` is a plain attribute: swapping
    it between epochs (hot-split rebalancing) only changes *where*
    fresh work runs, never what it computes.
    """

    def __init__(
        self,
        shards: int,
        *,
        backend: Optional[str] = None,
        placement: Optional[Placement] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.placement = (
            placement if placement is not None else StaticHash(shards)
        )
        if self.placement.shards != shards:
            raise ValueError(
                f"placement spans {self.placement.shards} shards, "
                f"executor was given {shards}"
            )
        if backend is None:
            backend = "serial" if shards == 1 else f"process:{shards}"
        self.backend = ShardPool(backend)

    @property
    def shards(self) -> int:
        return self.placement.shards

    def warm(self) -> None:
        """Start the worker pool now, from the calling thread.

        The service calls this before its asyncio dispatcher exists, so
        process workers fork from a single-threaded parent.
        """
        self.backend.map(len, [()])

    def plan_tasks(
        self,
        fresh: Sequence[Tuple[int, PlannedItem]],
        rng_seed: object,
        neighbor_counts: Optional[Dict[str, int]] = None,
    ) -> List[List[ShardTask]]:
        """Group fresh plan entries into per-shard batches."""
        neighbor_counts = neighbor_counts or {}
        batches: List[List[ShardTask]] = [[] for _ in range(self.shards)]
        for position, entry in fresh:
            item = entry.item
            shard = self.placement.owner(item.asn, item.prefix)
            batches[shard].append(
                ShardTask(
                    position=position,
                    shard=shard,
                    spec=item.spec,
                    routes=tuple(sorted(item.routes.items())),
                    round=entry.round,
                    rng_seed=rng_seed,
                    chooser=(
                        entry.chooser
                        if isinstance(entry.chooser, str)
                        else None
                    ),
                    neighbors=neighbor_counts.get(item.spec.prover, 0),
                )
            )
        return batches

    def execute(
        self,
        keystore: KeyStore,
        fresh: Sequence[Tuple[int, PlannedItem]],
        rng_seed: object,
        neighbor_counts: Optional[Dict[str, int]] = None,
    ) -> Dict[int, ShardOutcome]:
        """Run the fresh entries; returns outcomes keyed by plan position.

        Worker crypto counts are merged back into ``keystore`` in plan
        order, so the service's op totals match a serial monitor's.
        """
        batches = self.plan_tasks(fresh, rng_seed, neighbor_counts)
        payloads = [(keystore, tuple(batch)) for batch in batches if batch]
        outcomes: Dict[int, ShardOutcome] = {}
        if not payloads:
            return outcomes
        for group in self.backend.map(_run_shard_batch, payloads):
            for outcome in group:
                outcomes[outcome.position] = outcome
        for position in sorted(outcomes):
            outcome = outcomes[position]
            keystore.add_counts(outcome.signatures, outcome.verifications)
        return outcomes
