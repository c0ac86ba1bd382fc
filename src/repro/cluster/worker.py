"""The cluster worker: a fully independent Monitor in its own process.

Every worker owns a complete, deterministic **replica** of the audited
network (built from the spec's factory) and a
:class:`ClusterWorkerMonitor` over it.  The coordinator never plans on
the workers' behalf — instead the cluster runs **deterministic
co-planning**: every worker applies the *same* churn to its replica,
marks the *same* dirty pairs, and derives the *same* global epoch plan
(same entries, same canonical order, same round allocation) — then
executes only the slice its :class:`~repro.cluster.placement.Placement`
assigns it, over its own wire.  Because round numbers and commitment
nonces are a pure function of the shared plan, the union of the slices
is byte-identical to an unsharded monitor's epoch, whoever owns what.

Two pieces of shared state make co-planning exact:

* **shadow cache entries** — a worker tracks the reuse *fingerprint* of
  every out-of-shard tuple (with a :data:`SHADOW` placeholder instead
  of the verdict event), so its reuse decisions — which determine round
  allocation — match the owner's;
* **violation invalidations** — violations are never cached; the owner
  drops its entry locally and the coordinator broadcasts the tuple key
  so every other worker drops its shadow before the next plan.

The same mechanism powers **online resharding**: ownership moving to
another worker exports the real cache entry (fingerprint + verdict
event) for installation at the new owner and leaves a shadow behind —
reuse decisions are unchanged everywhere, so parity survives the move.

One worker process speaks a small command protocol over a
multiprocessing pipe (see :data:`COMMANDS`); the inline transport
drives the identical :class:`WorkerState` object in-process.  Every
command is request/response except ``"epoch"``, which *streams*: the
worker emits ``("stream", frame)`` messages (a
:class:`~repro.cluster.requests.PlanHeader`, then
:class:`~repro.cluster.requests.SliceChunk` batches — and
:class:`~repro.cluster.requests.Heartbeat` liveness frames when
enabled — as owned positions complete) before its final
``("ok", EpochSummary)`` reply, so the coordinator can fold the trail
incrementally and a mid-slice death loses only the unstreamed suffix.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.obs.trace import TraceContext
from repro.crypto.keystore import KeyStore
from repro.pvr.scenarios import apply_step

from repro.cluster.placement import Placement
from repro.cluster.requests import (
    AuditProbe,
    BackfillSlice,
    EpochSummary,
    Heartbeat,
    PlanHeader,
    SliceChunk,
    SnapshotChunk,
)

__all__ = [
    "ClusterWorkerMonitor",
    "SHADOW",
    "WorkerDied",
    "WorkerState",
    "bootstrap_from_snapshot",
    "worker_main",
]

#: the wire-visible command vocabulary (documentation; the coordinator
#: and :meth:`WorkerState.handle` are the two endpoints)
COMMANDS = (
    "churn",        # (steps, marks) -> pending
    "epoch",        # (invalidations, trust) -> streams, then EpochSummary
    "probe",        # (probe, owner) -> event | None
    "backfill",     # (positions,) -> BackfillSlice for a dead worker
    "reshard",      # (placement,) -> exported cache entries
    "install",      # (entries,) -> count installed
    "snapshot",     # () -> streams SnapshotChunks, then {"planning",
                    #       "chunks", "size", "digest"} for a bootstrap
                    #       spawn (the coordinator reassembles)
    "describe",     # () -> planning-state summary (recovery adoption)
    "counts",       # () -> crypto/transport counters
    "stop",         # () -> None (the worker exits)
)


class WorkerDied(RuntimeError):
    """An inline worker's injected death: unwinds out of ``handle`` so
    the inline transport can mark the worker dead, mirroring a process
    worker's SIGKILL."""


class _ShadowType:
    """Placeholder for the verdict event of a tuple another worker owns
    (only its fingerprint matters here).  A pickled shadow resolves back
    to the singleton."""

    _instance: Optional["_ShadowType"] = None

    def __new__(cls) -> "_ShadowType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "<shadow>"

    def __reduce__(self):
        return (_ShadowType, ())


SHADOW = _ShadowType()

#: bytes per streamed bootstrap-snapshot chunk (the pipe frames a
#: grow/respawn donor replica ships in)
SNAPSHOT_CHUNK_BYTES = 262144


class ClusterStateError(RuntimeError):
    """A worker's shared-planning state diverged (e.g. it owns a tuple
    whose cache entry was never migrated to it)."""


class ClusterWorkerMonitor(Monitor):
    """A monitor that plans globally but executes only its placement's
    share.

    *Marks are global*, so the plan — and with it round allocation —
    is identical on every worker and on the unsharded reference.
    Ownership is enforced at execution time instead, against the
    current (swappable) placement.
    """

    def __init__(
        self,
        keystore: KeyStore,
        *,
        placement: Placement,
        index: int,
        **options,
    ) -> None:
        super().__init__(keystore, **options)
        self.placement = placement
        self.index = index

    def owns(self, asn: str, prefix) -> bool:
        return self.placement.owner(asn, prefix) == self.index

    # -- the co-planned epoch ------------------------------------------------

    #: the most recent global plan, retained for buddy backfill of a
    #: dead worker's unfinished positions
    last_plan = None

    def run_epoch_slice(self, *, on_plan=None, on_event=None, on_entry=None):
        """Plan the *global* epoch, execute this worker's slice.

        ``on_plan(plan)`` fires once after planning, ``on_event(position,
        event)`` per completed owned position, ``on_entry(position)``
        per plan entry regardless of ownership — the streaming layer's
        seams for chunk flushing, heartbeats and failure injection.

        Returns ``(plan, slice, violated)``: ``slice`` is the owned
        events as ``(plan position, event)`` pairs — the coordinator
        interleaves all workers' slices by position to reconstruct the
        canonical trail — and ``violated`` lists the cache keys of
        owned tuples whose fresh verdict found a violation (broadcast
        as shadow invalidations before the next plan).
        """
        plan = self.plan_epoch()
        self.last_plan = plan
        if on_plan is not None:
            on_plan(plan)
        events: List[Tuple[int, object]] = []
        violated: List[tuple] = []
        for position, entry in enumerate(plan.entries):
            if on_entry is not None:
                on_entry(position)
            key = self._cache_key(entry.item)
            owned = self.owns(entry.item.asn, entry.item.prefix)
            event = None
            if entry.fresh:
                if owned:
                    report, stats = self.run_planned_round(entry)
                    event = self.record_planned(
                        entry, report, stats, epoch=plan.epoch
                    )
                    if not event.ok():
                        violated.append(key)
                else:
                    # mirror the owner's cache decision optimistically;
                    # a violation there is invalidated by broadcast
                    # before the next plan ever consults this entry
                    self._cache[key] = (entry.fingerprint, SHADOW)
            elif entry.previous is SHADOW:
                if owned:
                    raise ClusterStateError(
                        f"worker {self.index} owns {key} but holds only "
                        f"a shadow cache entry (missed migration?)"
                    )
            elif owned:
                event = self.emit_reused(entry, epoch=plan.epoch)
            # an unowned real entry (pre-reshard leftover) needs no
            # action: the owner emits, our copy keeps the fingerprint
            if event is not None:
                events.append((position, event))
                if on_event is not None:
                    on_event(position, event)
        return plan, events, violated

    def backfill(self, positions: Sequence[int]):
        """Re-execute another (dead) worker's positions from the
        retained plan, on this worker's own replica and wire.

        Fresh positions run the planned round here — same round number,
        same nonce, same inputs, so the event is byte-identical to what
        the owner would have recorded.  Reused positions whose previous
        event this worker holds for real are re-emitted locally; where
        it holds only a shadow, the cache *key* is returned so the
        coordinator re-emits from its own mirror.  Returns
        ``(events, reused_keys, violated)``.
        """
        plan = self.last_plan
        if plan is None:
            raise ClusterStateError(
                f"worker {self.index} has no retained plan to backfill"
            )
        events: List[Tuple[int, object]] = []
        reused_keys: List[Tuple[int, tuple]] = []
        violated: List[tuple] = []
        for position in positions:
            entry = plan.entries[position]
            key = self._cache_key(entry.item)
            if entry.fresh:
                report, stats = self.run_planned_round(entry)
                event = self.record_planned(
                    entry, report, stats, epoch=plan.epoch
                )
                events.append((position, event))
                if not event.ok():
                    violated.append(key)
            elif entry.previous is SHADOW:
                reused_keys.append((position, key))
            else:
                events.append(
                    (position, self.emit_reused(entry, epoch=plan.epoch))
                )
        return events, reused_keys, violated

    def invalidate(self, keys: Sequence[tuple]) -> None:
        """Drop cache entries (real or shadow) for violated tuples."""
        for key in keys:
            self._cache.pop(tuple(key), None)

    def probe_round(self, probe: AuditProbe, owner: int):
        """One out-of-epoch audit.  The owner runs the wire round; every
        other worker burns the same round number so allocation stays in
        lockstep with the unsharded reference."""
        if owner != self.index:
            self._next_round()
            return None
        return self.audit_once(
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

    # -- resharding ----------------------------------------------------------

    def reshard(self, placement: Placement) -> Dict[tuple, tuple]:
        """Adopt ``placement``; export (and demote to shadow) every real
        cache entry for a pair this worker no longer owns."""
        self.placement = placement
        exported: Dict[tuple, tuple] = {}
        for key, (fingerprint, event) in list(self._cache.items()):
            if event is SHADOW:
                continue
            asn, prefix = key[0], key[1]
            if placement.owner(asn, prefix) != self.index:
                exported[key] = (fingerprint, event)
                self._cache[key] = (fingerprint, SHADOW)
        return exported

    def install(self, entries: Dict[tuple, tuple]) -> int:
        """Install migrated real cache entries for pairs now owned."""
        for key, (fingerprint, event) in entries.items():
            asn, prefix = key[0], key[1]
            if not self.owns(asn, prefix):
                raise ClusterStateError(
                    f"worker {self.index} was sent a cache entry for "
                    f"({asn}, {prefix}) it does not own"
                )
            self._cache[key] = (fingerprint, event)
        return len(entries)

    # -- state sync (grow-spawned workers) -----------------------------------

    def planning_snapshot(self) -> Tuple[int, int, Dict[tuple, tuple]]:
        """The shared planning state a newly spawned worker adopts:
        epoch counter, round counter, and the full fingerprint cache
        (events stripped to shadows — reals arrive via migration)."""
        if self._dirty:
            raise ClusterStateError(
                "cannot snapshot planning state with churn pending"
            )
        return (
            self.epoch,
            self._round_counter,
            {
                key: (fingerprint, SHADOW)
                for key, (fingerprint, _) in self._cache.items()
            },
        )

    def adopt_snapshot(
        self, snapshot: Tuple[int, int, Dict[tuple, tuple]]
    ) -> None:
        epoch, round_counter, cache = snapshot
        self.epoch = epoch
        self._round_counter = round_counter
        self._cache = dict(cache)
        self._dirty.clear()


def bootstrap_from_snapshot(monitor, network, churn_log, planning) -> int:
    """Fast-forward a freshly built worker to the cluster's present.

    Replays the (snapshot-truncated) churn-log suffix so the replica's
    RIBs match the incumbents', then adopts the donor's planning state
    (the monitor hooks marked pairs dirty during replay and policy
    registration; ``adopt_snapshot`` clears them — those epochs already
    ran elsewhere).  This is the **one** fast-forward path, shared by
    reshard-grow and failure respawn so the two can never drift.
    Returns the number of replayed churn steps.
    """
    replayed = sum(len(steps) for steps in churn_log)
    for steps in churn_log:
        for step in steps:
            apply_step(step, network)
        network.run_to_quiescence()
    if planning is not None:
        monitor.adopt_snapshot(planning)
    return replayed


class WorkerState:
    """One worker's world: the network replica, the monitor, the
    command handler.  Identical for both transports.

    ``emit`` is the streaming channel for the epoch command — the
    process transport points it at ``conn.send``, the inline transport
    at a per-command buffer.  By default frames accumulate in
    ``self.stream`` (direct/test use).
    """

    def __init__(
        self,
        spec,
        index: int,
        placement: Placement,
        churn_log: Sequence[Tuple[object, ...]] = (),
        snapshot=None,
    ) -> None:
        self.spec = spec
        self.index = index
        planning = snapshot
        if isinstance(snapshot, dict):
            # snapshot-truncated fast-forward: adopt the donor's pickled
            # replica instead of rebuilding from the factory — any churn
            # before the snapshot is already baked into its RIBs, so
            # only the (truncated) suffix needs replaying.  A recovery
            # spawn before any checkpoint captured a replica passes
            # ``network=None``: rebuild from the factory and replay the
            # full journaled churn suffix instead.
            network = (
                pickle.loads(snapshot["network"])
                if snapshot["network"] is not None
                else spec.network()
            )
            planning = snapshot["planning"]
        else:
            network = spec.network()
        keystore = spec.build_keystore()
        # one trace context per worker incarnation; its records ship to
        # the coordinator inside EpochSummary/BackfillSlice frames (the
        # coordinator re-ids them on adoption, so a respawn restarting
        # this counter cannot collide)
        self.tracer = TraceContext(f"w{index}", enabled=spec.trace)
        intensity = None
        if spec.ledger is not None:
            from repro.ledger import VerificationIntensity

            intensity = VerificationIntensity(
                spec.ledger, seed=spec.rng_seed
            )
        self.monitor = ClusterWorkerMonitor(
            keystore,
            placement=placement,
            index=index,
            rng_seed=spec.rng_seed,
            max_work_per_epoch=spec.max_work,
            store=EvidenceStore(keystore, max_events=spec.max_events),
            intensity=intensity,
            tracer=self.tracer,
        ).attach(network)
        for policy in spec.policies:
            policy.install(self.monitor)
        self.network = network
        self.replayed_steps = bootstrap_from_snapshot(
            self.monitor, network, churn_log, planning
        )
        self.stream: List[Tuple[str, object]] = []
        self.emit = self.stream.append
        #: the process transport sets this: an injected kill is a real
        #: SIGKILL there, a WorkerDied unwind inline
        self.hard_kill = False

    # -- command handlers ----------------------------------------------------

    def handle(self, command: Tuple) -> object:
        op, args = command[0], command[1:]
        handler = getattr(self, f"_do_{op}", None)
        if handler is None:
            raise ValueError(f"unknown worker command {op!r}")
        return handler(*args)

    def _do_churn(self, steps, marks) -> bool:
        for step in steps:
            apply_step(step, self.network)
        for asn, prefix in marks:
            self.monitor.mark(asn, prefix)
        self.network.run_to_quiescence()
        return bool(self.monitor.pending())

    def _do_epoch(self, invalidations, trust=None):
        """The streaming epoch: plan header first, slice chunks as owned
        positions complete, then the summary as the command's reply."""
        self.monitor.invalidate(invalidations)
        if trust is not None and self.monitor.intensity is not None:
            self.monitor.intensity.update(trust)
        span = self.tracer.begin(
            "slice", component="worker", worker=self.index
        )
        chaos = self.spec.chaos
        batch = self.spec.stream_batch
        beat_every = self.spec.heartbeat_interval
        chunk: List[Tuple[int, object]] = []
        counts = {"emitted": 0, "fresh": 0, "reused": 0}
        last_emit = [span.start]

        def send(frame) -> None:
            self.emit(("stream", frame))
            last_emit[0] = time.perf_counter()

        def flush() -> None:
            if chunk:
                send(SliceChunk(worker=self.index, events=tuple(chunk)))
                del chunk[:]

        def chaos_armed(plan) -> bool:
            return (
                chaos is not None
                and chaos.worker == self.index
                and chaos.epoch == plan.epoch
            )

        def die() -> None:
            # the injected failure: flush first so exactly `after`
            # events made it out (deterministic on both transports)
            flush()
            if chaos.mode == "hang":
                time.sleep(chaos.hang_seconds)
                return  # reaped by the coordinator's deadline long ago
            if self.hard_kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise WorkerDied(
                f"chaos kill: worker {self.index} at epoch {chaos.epoch} "
                f"after {counts['emitted']} events"
            )

        def on_plan(plan) -> None:
            span.epoch = plan.epoch
            send(
                PlanHeader(
                    worker=self.index,
                    epoch=plan.epoch,
                    entries=len(plan.entries),
                )
            )
            if chaos_armed(plan) and chaos.after == 0:
                die()

        def on_event(position, event) -> None:
            chunk.append((position, event))
            counts["emitted"] += 1
            counts["reused" if event.reused else "fresh"] += 1
            if chaos_armed(self.monitor.last_plan) and (
                counts["emitted"] == chaos.after
            ):
                die()
            if len(chunk) >= batch:
                flush()

        def on_entry(position) -> None:
            if beat_every > 0 and (
                time.perf_counter() - last_emit[0] >= beat_every
            ):
                flush()
                entries = len(self.monitor.last_plan.entries)
                send(
                    Heartbeat(
                        worker=self.index,
                        position=position,
                        backlog=max(0, entries - position),
                    )
                )

        try:
            plan, _events, _violated = self.monitor.run_epoch_slice(
                on_plan=on_plan, on_event=on_event, on_entry=on_entry
            )
        except BaseException:
            self.tracer.finish(span, status="error")
            raise
        flush()
        span.attrs["emitted"] = counts["emitted"]
        span.attrs["fresh"] = counts["fresh"]
        self.tracer.finish(span)
        return EpochSummary(
            worker=self.index,
            epoch=plan.epoch,
            entries=len(plan.entries),
            emitted=counts["emitted"],
            fresh=counts["fresh"],
            reused=counts["reused"],
            deferred=tuple(plan.deferred),
            pending=bool(self.monitor.pending()),
            wall_seconds=span.duration,
            spans=self.tracer.take_records(),
        )

    def _do_backfill(self, positions):
        span = self.tracer.begin(
            "backfill", component="worker", worker=self.index,
            positions=len(positions),
        )
        events, reused_keys, _violated = self.monitor.backfill(positions)
        self.tracer.finish(span)
        return BackfillSlice(
            worker=self.index,
            events=tuple(events),
            reused=tuple(reused_keys),
            fresh=sum(1 for _, e in events if not e.reused),
            wall_seconds=span.duration,
            spans=self.tracer.take_records(),
        )

    def _do_probe(self, probe, owner):
        return self.monitor.probe_round(probe, owner)

    def _do_reshard(self, placement):
        return self.monitor.reshard(placement)

    def _do_install(self, entries):
        return self.monitor.install(entries)

    def _do_snapshot(self):
        """The streamed bootstrap donor: the pickled replica ships as
        ``("stream", SnapshotChunk)`` frames of
        :data:`SNAPSHOT_CHUNK_BYTES` each, so a grow/respawn of a large
        table never parks one giant message in the pipe; the final reply
        carries the planning state and a digest the coordinator checks
        after reassembly."""
        planning = self.monitor.planning_snapshot()
        blob = self._network_bytes()
        size = SNAPSHOT_CHUNK_BYTES
        total = max(1, -(-len(blob) // size))
        for index in range(total):
            self.emit(
                (
                    "stream",
                    SnapshotChunk(
                        worker=self.index,
                        index=index,
                        total=total,
                        data=blob[index * size:(index + 1) * size],
                    ),
                )
            )
        return {
            "planning": planning,
            "chunks": total,
            "size": len(blob),
            "digest": hashlib.sha256(blob).hexdigest(),
        }

    def _do_describe(self):
        """The recovery re-adoption probe: enough planning state for a
        restarted coordinator to decide whether this still-running
        worker sits exactly at the recovered boundary (adopt) or has
        drifted past it (kill and cold-respawn)."""
        return {
            "epoch": self.monitor.epoch,
            "round": self.monitor._round_counter,
            "placement": self.monitor.placement.describe(),
            "dirty": bool(self.monitor._dirty),
            "cache": len(self.monitor._cache),
        }

    def _network_bytes(self) -> bytes:
        """Pickle the replica with the monitor's churn hooks
        temporarily unhooked — the hook closures capture the live
        monitor and must not travel; they are re-armed before this
        returns, so the running worker keeps marking dirty pairs."""
        hooked = self.monitor._hooked
        try:
            for asn, (on_decision, on_resync) in hooked.items():
                router = self.network.router(asn)
                router.remove_decision_hook(on_decision)
                router.remove_resync_hook(on_resync)
            return pickle.dumps(self.network)
        finally:
            for asn, (on_decision, on_resync) in hooked.items():
                router = self.network.router(asn)
                router.add_decision_hook(on_decision)
                router.add_resync_hook(on_resync)

    def _do_counts(self):
        return {
            "signatures": self.monitor.keystore.sign_count,
            "verifications": self.monitor.keystore.verify_count,
            "messages": self.network.transport.delivered,
            "bytes": self.network.transport.bytes_sent,
            "events": len(self.monitor.evidence),
            "replayed_steps": self.replayed_steps,
        }

    def _do_stop(self):
        return None


def worker_main(spec, index, placement, churn_log, snapshot, conn) -> None:
    """The process-transport entry point: serve commands until "stop".

    Every command gets exactly one *final* reply: ``("ok", payload)``
    or ``("error", message)`` — an exception must never leave the
    coordinator hanging on ``recv()``.  The epoch command additionally
    emits ``("stream", frame)`` messages before its final reply.
    """
    try:
        state = WorkerState(spec, index, placement, churn_log, snapshot)
        state.emit = conn.send
        state.hard_kill = True
        conn.send(("ok", "ready"))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            command = conn.recv()
        except EOFError:
            break
        try:
            payload = state.handle(command)
            conn.send(("ok", payload))
        except Exception:
            conn.send(("error", traceback.format_exc()))
        if command[0] == "stop":
            break
    conn.close()
