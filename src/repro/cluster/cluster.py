"""The cluster coordinator: streaming, failure-tolerant epoch driving.

A :class:`Cluster` is built from a :class:`~repro.cluster.spec.ClusterSpec`
and runs N **fully independent Monitor workers** — each in its own
process with its own network replica, keystore and evidence store —
behind one IPC admission plane (pipes for the ``"process"`` transport;
the ``"inline"`` transport drives the same protocol in-process).

The coordinator does five things, none of which is planning:

* **admission** — requests queue in the shared
  :class:`~repro.cluster.admission.AdmissionQueue` behind the spec's
  :class:`~repro.cluster.admission.AdmissionPolicy`; adjacent churn
  requests **coalesce**: up to ``spec.coalesce_max`` queued churn
  requests ride a single epoch sequence and share one
  :class:`~repro.audit.events.EpochOutcome`;
* **fan-out** — churn/epoch/probe commands broadcast to every live
  worker; workers co-plan deterministically (see
  :mod:`repro.cluster.worker`) and execute their placement's slice
  concurrently;
* **streaming fold** — workers emit their slices *as positions
  complete* (:class:`~repro.cluster.requests.SliceChunk` frames); the
  coordinator folds them through a plan-order reorder buffer
  (:class:`~repro.cluster.fold.SliceFold`) into the central
  :class:`~repro.audit.store.EvidenceStore`, so the trail is
  byte-identical to an unsharded monitor's — seq for seq, round for
  round, verdict for verdict, crypto count for crypto count — and a
  death mid-epoch loses only the dead worker's unstreamed suffix;
* **failure tolerance** — a worker that closes its pipe, misses the
  per-epoch deadline, or goes heartbeat-silent is declared dead: its
  missing positions are **backfilled** by a live buddy (same plan, same
  rounds, same nonces — byte-identical events), and the worker is
  **respawned** through the same bootstrap path reshard-grow uses
  (donor snapshot + truncated churn-log replay + commitment-cache
  install from the coordinator's mirror).  More than
  ``spec.max_failures_per_epoch`` deaths in one epoch fails loudly;
* **resharding** — :meth:`Cluster.reshard` swaps the placement online;
  moved (AS, prefix) ownership migrates its commitment-cache entries.

With ``spec.journal`` set the coordinator additionally keeps a
write-ahead journal (:mod:`repro.journal`) of every fold seam — churn
admissions, epoch plans, folded events with their mirror decisions,
commits, adjudications, reshards — fsynced at each commit boundary, so
a coordinator killed mid-run restarts at the last boundary with a
byte-identical trail: the replacement ``Cluster`` replays the journal,
re-adopts still-running workers that sit exactly at the boundary, and
cold-spawns the rest from the checkpointed replica plus the journaled
churn suffix.  :meth:`Cluster.replace_worker` reuses the same bootstrap
path for planned (rolling) replacement of live workers.

Queries and adjudication are answered from the folded central trail, so
readers always see a consistent view between epochs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.events import (
    EpochOutcome,
    EpochReport,
    SliceStats,
    reused_event,
)
from repro.audit.store import EvidenceStore
from repro.audit.wire import reports_match, run_offwire_round

from repro.cluster.admission import AdmissionQueue, Ticket
from repro.cluster.fold import FoldError, SliceFold
from repro.cluster.metrics import ClusterMetrics
from repro.journal.journal import Journal, pack
from repro.journal.recovery import (
    genesis_fingerprint,
    mirror_note,
    policy_choosers,
    recover_state,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext
from repro.cluster.placement import make_placement, moved_pairs
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
    Completion,
    EpochSummary,
    Heartbeat,
    PlanHeader,
    QueryRequest,
    SliceChunk,
    SnapshotChunk,
    answer_adjudicate,
    answer_query,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.worker import SHADOW, WorkerDied, WorkerState, worker_main

__all__ = ["Cluster", "ClusterError", "EpochOutcome"]


class ClusterError(RuntimeError):
    """A worker failed unrecoverably, or shared state diverged."""


class _InlineWorker:
    """The command protocol against an in-process :class:`WorkerState` —
    deterministic, pickle-free, and exactly the code path the process
    transport runs on the far side of the pipe.  Stream frames buffer
    in the state's ``stream`` list; an injected death unwinds as
    :class:`~repro.cluster.worker.WorkerDied` and marks the worker
    dead, mirroring a process worker's SIGKILL."""

    def __init__(self, *args) -> None:
        self.state = WorkerState(*args)
        self.dead = False
        self._reply: Tuple[str, object] = ("ok", None)

    def post(self, command: Tuple) -> None:
        del self.state.stream[:]
        try:
            self._reply = ("ok", self.state.handle(command))
        except WorkerDied as exc:
            self.dead = True
            self._reply = ("died", str(exc))
        except Exception as exc:
            self._reply = ("error", f"{type(exc).__name__}: {exc}")

    def take_stream(self) -> List[Tuple[str, object]]:
        frames = list(self.state.stream)
        del self.state.stream[:]
        return frames

    def reply(self) -> Tuple[str, object]:
        return self._reply

    def wait(self) -> object:
        status, payload = self._reply
        if status != "ok":
            raise ClusterError(str(payload))
        return payload

    def kill(self) -> None:
        self.dead = True

    def shutdown(self) -> None:
        pass


class _ProcessWorker:
    """One worker process plus its pipe endpoint."""

    def __init__(self, context, *args) -> None:
        parent, child = context.Pipe()
        self.process = context.Process(
            target=worker_main, args=(*args, child), daemon=True
        )
        self.process.start()
        child.close()
        self.conn = parent
        status, payload = self.conn.recv()  # the readiness handshake
        if status == "error":
            raise ClusterError(f"worker failed to start:\n{payload}")

    def post(self, command: Tuple) -> None:
        self.conn.send(command)

    def wait(self) -> object:
        while True:
            try:
                status, payload = self.conn.recv()
            except EOFError:
                raise ClusterError("worker died mid-command") from None
            if status == "stream":
                continue  # stray frames from a superseded epoch
            if status == "error":
                raise ClusterError(f"worker command failed:\n{payload}")
            return payload

    def kill(self) -> None:
        """Hard-stop a worker declared dead (idempotent)."""
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already gone
            pass
        self.process.join(timeout=10)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def shutdown(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - killed earlier
            pass
        finally:
            self.process.join(timeout=10)
            if self.process.is_alive():  # pragma: no cover - safety net
                self.process.terminate()


class Cluster:
    """N process-isolated monitors behind one admission plane."""

    def __init__(self, spec: ClusterSpec, *, adopt_workers=None) -> None:
        self.spec = spec
        self.placement = spec.resolved_placement()
        self.admission = spec.resolved_admission()
        self.keystore = spec.build_keystore()
        #: the coordinator's write-ahead log (:mod:`repro.journal`);
        #: ``None`` unless the spec names a journal directory
        self.journal = None
        recovered = None
        if spec.journal:
            self.journal = Journal(
                spec.journal,
                segment_max_records=spec.journal_segment_records,
            )
            recovered = recover_state(
                spec, self.journal, keystore=self.keystore
            )
        if recovered is not None:
            #: the authoritative folded trail, replayed seq for seq
            #: from the journal up to the last commit boundary
            self.evidence = recovered.store
            self.ledger = recovered.ledger
        else:
            #: the authoritative folded trail (workers' slices
            #: interleaved in plan order and re-sequenced on absorption)
            self.evidence = EvidenceStore(
                self.keystore, max_events=spec.max_events
            )
            #: accountability ledger over the folded trail (None when
            #: the spec leaves it off).  Workers never run their own
            #: ledger — the coordinator settles it at each epoch
            #: boundary and ships the trust snapshot with the epoch
            #: command, so every worker plans against identical trust
            #: state.
            self.ledger = None
            if spec.ledger is not None:
                from repro.ledger import TrustLedger

                self.ledger = TrustLedger(spec.ledger).attach(
                    self.evidence
                )
        #: the self-regulating control plane (None when the spec leaves
        #: it off): fed from epoch outcomes and queue depth, ticked
        #: after every ``pump()`` — see :meth:`_apply_placement`
        self.controller = None
        if spec.controller is not None:
            from repro.control.controller import Controller

            self.controller = Controller(spec.controller)
        self.metrics = ClusterMetrics()
        self.metrics.admission = self.admission
        self.metrics.control = self.controller
        self._queue = AdmissionQueue(
            self.admission,
            self.metrics,
            depth=spec.queue_depth,
            coalesce_max=spec.coalesce_max,
            controller=self.controller,
        )
        #: causal tracing + crash forensics (:mod:`repro.obs`): every
        #: closed record rings through the flight recorder, which dumps
        #: JSONL at the failure sites (worker reap, parity failure,
        #: ClusterError) when the spec names a ``flight_dump`` path
        self.recorder = FlightRecorder()
        self.tracer = self.recorder.attach(
            TraceContext("c", enabled=spec.trace)
        )
        if self.controller is not None:
            self.controller.tracer = self.tracer
        self._context = (
            multiprocessing.get_context("fork")
            if spec.transport == "process"
            else None
        )
        self._churn_log: List[Tuple[object, ...]] = []
        self._invalidations: List[tuple] = []
        self._seen_pairs: set = set()
        self._load_at_rebalance: Dict[int, int] = {}
        self._choosers = policy_choosers(spec)
        #: worker index -> death reason, between detection and respawn
        self._dead: Dict[int, str] = {}
        #: the coordinator's commitment-cache mirror: cache key ->
        #: (fingerprint, last ok fresh event), maintained from the
        #: folded stream exactly as each owner maintains its own cache
        #: (ok caches, violation evicts, reused leaves untouched).  It
        #: re-emits reused events for a dead owner's positions and
        #: seeds a respawned worker's real entries.
        self._cache_mirror: Dict[tuple, tuple] = {}
        #: mutating (churn/adjudicate) requests committed so far —
        #: journaled at each commit boundary so a recovered run knows
        #: how much of its script already happened
        self._committed = 0
        self._commits_since_checkpoint = 0
        #: how many committed requests a recovery replayed (0 on a
        #: fresh start) — the CLI skips this many script entries
        self.recovered_requests = 0
        if recovered is not None:
            self._workers = []
            self._finish_recovery(recovered, adopt_workers)
        else:
            self._workers = [
                self._spawn(index)
                for index in range(self.placement.shards)
            ]
            if self.journal is not None:
                genesis = genesis_fingerprint(spec)
                genesis["placement"] = self.placement.describe()
                self.journal.append("genesis", genesis)
                self.journal.sync()
        self.metrics.placement = self.placement
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int, snapshot=None):
        args = (
            self.spec,
            index,
            self.placement,
            tuple(self._churn_log),
            snapshot,
        )
        if self._context is None:
            return _InlineWorker(*args)
        return _ProcessWorker(self._context, *args)

    def _bootstrap_snapshot(self):
        """Pull a bootstrap snapshot from the first live worker and
        truncate the churn log at it — the **one** fast-forward recipe
        (donor replica + planning state now, churn-suffix replay in the
        spawned worker), shared by reshard-grow and failure respawn.
        The snapshot carries the donor's pickled replica, so every
        churn step before it is already baked in: future spawns replay
        only churn that lands after it — fast-forward cost is bounded
        by the inter-snapshot churn, not the cluster's lifetime."""
        live = self._live_indices()
        if not live:
            raise ClusterError("no live worker left to donate a snapshot")
        snapshot = self._pull_snapshot(live[0])
        self._churn_log.clear()
        return snapshot

    def _pull_snapshot(self, index: int) -> Dict[str, object]:
        """Collect one worker's *streamed* bootstrap snapshot: the
        donor frames its pickled replica into
        :class:`~repro.cluster.requests.SnapshotChunk` pieces, and the
        final reply carries
        the planning state plus a digest verified after reassembly."""
        span = self.tracer.begin(
            "snapshot", component="cluster", worker=index
        )
        try:
            worker = self._workers[index]
            worker.post(("snapshot",))
            chunks: List[SnapshotChunk] = []
            if self._context is None:
                for status, frame in worker.take_stream():
                    if status == "stream" and isinstance(
                        frame, SnapshotChunk
                    ):
                        chunks.append(frame)
                reply = worker.wait()
            else:
                while True:
                    try:
                        status, payload = worker.conn.recv()
                    except EOFError:
                        raise ClusterError(
                            f"worker {index} died mid-snapshot"
                        ) from None
                    if status == "stream":
                        if isinstance(payload, SnapshotChunk):
                            chunks.append(payload)
                        continue  # stray frames from a superseded epoch
                    if status == "error":
                        raise ClusterError(
                            f"snapshot command failed:\n{payload}"
                        )
                    reply = payload
                    break
            blob = b"".join(
                chunk.data
                for chunk in sorted(chunks, key=lambda c: c.index)
            )
            if (
                len(chunks) != reply["chunks"]
                or len(blob) != reply["size"]
                or hashlib.sha256(blob).hexdigest() != reply["digest"]
            ):
                raise ClusterError(
                    f"snapshot reassembly from worker {index} failed: "
                    f"{len(chunks)}/{reply['chunks']} chunks, "
                    f"{len(blob)}/{reply['size']} bytes"
                )
            span.attrs["chunks"] = len(chunks)
            span.attrs["bytes"] = len(blob)
        finally:
            self.tracer.finish(span)
        return {"network": blob, "planning": reply["planning"]}

    # -- durability (the write-ahead journal) --------------------------------

    def _journal(self, rtype: str, **data) -> None:
        """Append one journal record when durability is enabled."""
        if self.journal is not None:
            self.journal.append(rtype, data)

    def _commit(self, requests: int) -> None:
        """Mark a commit boundary: ``requests`` mutating requests are
        now fully served.  With a journal this is the durable cut
        recovery rolls forward to — the commit record fsyncs, and
        every ``spec.journal_checkpoint_every`` commits the full
        coordinator state checkpoints (compacting the journal *and*
        the churn log)."""
        self._committed += requests
        if self.journal is None:
            return
        self.journal.append("commit", {"requests": requests})
        self.journal.sync()
        self._commits_since_checkpoint += 1
        every = self.spec.journal_checkpoint_every
        if every > 0 and self._commits_since_checkpoint >= every:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Capture the full coordinator state into the journal and
        compact: replay restarts from here.  The donor replica pickled
        into the checkpoint bakes in every churn step so far, so the
        coordinator's churn log truncates along with the journal's
        segments — both replay suffixes stay bounded by the checkpoint
        interval, not the cluster's lifetime."""
        live = self._live_indices()
        if not live:
            raise ClusterError("no live worker left to checkpoint from")
        with self.tracer.span("checkpoint", component="cluster") as span:
            snapshot = self._pull_snapshot(live[0])
            self._churn_log.clear()
            epoch, round_counter, _shadows = snapshot["planning"]
            state = {
                "store": self.evidence.checkpoint_state(),
                "mirror": dict(self._cache_mirror),
                "seen": set(self._seen_pairs),
                "invalidations": list(self._invalidations),
                "epoch": epoch,
                "round": round_counter,
                "placement": self.placement,
                "ledger": self.ledger,
                "network": snapshot["network"],
                "committed": self._committed,
            }
            self.journal.checkpoint(pack(state))
            span.attrs["bytes"] = len(snapshot["network"])
        self._commits_since_checkpoint = 0

    # -- crash recovery ------------------------------------------------------

    def _finish_recovery(self, recovered, adopt_workers) -> None:
        """Rebuild the worker fleet at the recovered boundary.

        Still-running workers offered for adoption (``adopt_workers``,
        index-aligned) are kept when their described planning state
        sits *exactly* at the boundary; everything else — including any
        worker that drifted into the truncated suffix before the crash
        — is killed and cold-spawned from the checkpointed replica (or
        the spec's factory before any checkpoint) plus the journaled
        churn suffix, with planning state and shadow caches derived
        from the replayed cache mirror.  Cold spawns then get their
        owned *real* cache entries installed from the mirror, exactly
        like a failure respawn, so post-recovery reuse decisions match
        the uncrashed run's."""
        if recovered.placement is not None:
            self.placement = recovered.placement
        self._cache_mirror = dict(recovered.mirror)
        self._seen_pairs = set(recovered.seen_pairs)
        self._invalidations = list(recovered.invalidations)
        self._churn_log = [tuple(s) for s in recovered.churn_suffix]
        self._committed = recovered.committed_requests
        self.recovered_requests = recovered.committed_requests
        # a journal that never got past genesis recovers to the empty
        # cluster: spawn pristine workers (their policy-registration
        # dirty marks must survive for the first epoch) instead of
        # adopting an all-zero planning snapshot that would clear them
        pristine = (
            recovered.epoch == 0
            and recovered.round_counter == 0
            and not recovered.mirror
            and recovered.network is None
        )
        snapshot = None
        if not pristine:
            shadows = {
                key: (entry[0], SHADOW)
                for key, entry in self._cache_mirror.items()
            }
            snapshot = {
                "network": recovered.network,
                "planning": (
                    recovered.epoch,
                    recovered.round_counter,
                    shadows,
                ),
            }
        candidates = list(adopt_workers or [])
        adopted: List[int] = []
        cold: List[int] = []
        for index in range(self.placement.shards):
            handle = (
                candidates[index] if index < len(candidates) else None
            )
            if handle is not None:
                if self._try_adopt(index, handle, recovered):
                    self._workers.append(handle)
                    adopted.append(index)
                    continue
                handle.kill()
            self._workers.append(self._spawn(index, snapshot))
            cold.append(index)
        for handle in candidates[self.placement.shards:]:
            handle.kill()
        installed = 0
        for index in cold:
            owned = {
                key: entry
                for key, entry in self._cache_mirror.items()
                if self.placement.owner(key[0], key[1]) == index
            }
            if owned:
                self._request(index, ("install", owned))
                installed += len(owned)
        self.metrics.note_recovery(
            records=recovered.replayed_records,
            truncated=recovered.truncated_records,
            committed=recovered.committed_requests,
            epoch=recovered.epoch,
            adopted=len(adopted),
            spawned=len(cold),
        )
        self.tracer.event(
            "recover", component="cluster",
            records=recovered.replayed_records,
            truncated=recovered.truncated_records,
            epoch=recovered.epoch, round=recovered.round_counter,
            adopted=len(adopted), spawned=len(cold),
            installed=installed,
        )

    def _try_adopt(self, index: int, handle, recovered) -> bool:
        """Probe a still-running worker: adopt it only when its
        described planning state sits exactly at the recovered
        boundary (same epoch, same round counter, same placement, no
        pending churn) — anything else means it drifted into the
        truncated suffix and must be cold-respawned."""
        if getattr(handle, "dead", False):
            return False
        try:
            handle.post(("describe",))
            described = handle.wait()
        except (ClusterError, OSError, BrokenPipeError):
            return False
        if (
            not described["dirty"]
            and described["epoch"] == recovered.epoch
            and described["round"] == recovered.round_counter
            and described["placement"] == self.placement.describe()
        ):
            self.tracer.event(
                "adopt", component="cluster", worker=index,
                epoch=described["epoch"], round=described["round"],
            )
            return True
        return False

    # -- rolling replacement -------------------------------------------------

    def replace_worker(self, index: int) -> Dict[str, int]:
        """Drain-and-respawn one *live* worker through the bootstrap
        path — the rolling-replacement primitive (process hygiene,
        leak flushing, binary upgrades).  The retiring worker itself
        donates the snapshot, so its replica and planning state carry
        over exactly; the replacement then gets its owned real cache
        entries re-installed from the mirror, and the folded trail is
        byte-identical to a run that never replaced anything."""
        self.pump()  # replace only between requests
        if not 0 <= index < len(self._workers) or index in self._dead:
            raise ClusterError(
                f"worker {index} is not live; replacement needs a "
                f"running donor"
            )
        with self.tracer.span(
            "replace", component="cluster", worker=index
        ) as span:
            snapshot = self._pull_snapshot(index)
            self._churn_log.clear()
            old = self._workers[index]
            try:
                old.post(("stop",))
                old.wait()
            except (ClusterError, OSError):
                pass
            old.shutdown()
            self._workers[index] = self._spawn(index, snapshot)
            owned = {
                key: entry
                for key, entry in self._cache_mirror.items()
                if self.placement.owner(key[0], key[1]) == index
            }
            if owned:
                self._request(index, ("install", owned))
            span.attrs["installed"] = len(owned)
        self._journal("replace", worker=index)
        self.metrics.note_replacement(worker=index, installed=len(owned))
        return {"worker": index, "installed": len(owned)}

    def _live_indices(self) -> List[int]:
        return [
            index
            for index in range(len(self._workers))
            if index not in self._dead
        ]

    @property
    def workers(self) -> int:
        return len(self._workers)

    def stop(self) -> None:
        """Stop every worker (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        for index in self._live_indices():
            try:
                self._workers[index].post(("stop",))
                self._workers[index].wait()
            except (ClusterError, OSError):
                pass
        for worker in self._workers:
            worker.shutdown()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the IPC fan-out -----------------------------------------------------

    def _broadcast(self, command: Tuple) -> List[object]:
        """Send one command to every *live* worker, collect every reply
        (``None`` at dead indices).

        Process workers execute concurrently between the post and wait
        phases — this is where the cluster's parallelism lives.  Every
        reply is drained before any error is raised: leaving a buffered
        reply unread would permanently desynchronize that worker's
        request/response pipe for the rest of the run."""
        live = self._live_indices()
        for index in live:
            self._workers[index].post(command)
        replies: List[object] = [None] * len(self._workers)
        errors: List[str] = []
        for index in live:
            try:
                replies[index] = self._workers[index].wait()
            except ClusterError as exc:
                errors.append(f"worker {index}: {exc}")
        if errors:
            raise ClusterError("; ".join(errors))
        return replies

    def _request(self, index: int, command: Tuple) -> object:
        self._workers[index].post(command)
        return self._workers[index].wait()

    # -- admission -----------------------------------------------------------

    def submit(self, request) -> Ticket:
        """Admit one request into the pending queue, or raise
        :class:`~repro.cluster.requests.AdmissionError`."""
        if self._stopped:
            raise RuntimeError("cluster is stopped")
        return self._queue.submit(request)

    def pump(self) -> None:
        """Serve everything pending, in admission order.  Adjacent
        churn requests coalesce (up to ``spec.coalesce_max``): one
        epoch sequence serves the whole group and every ticket shares
        its :class:`~repro.audit.events.EpochOutcome`."""
        if not len(self._queue):
            return
        while group := self._queue.next_group():
            try:
                payload = self._serve_group(group)
            except Exception as exc:
                self._queue.fail(group, exc)
            else:
                self._queue.resolve(group, payload)
        self._queue.control_tick(self._apply_placement)

    def request(self, request) -> Completion:
        """Admit one request, serve the queue, return its completion."""
        ticket = self.submit(request)
        self.pump()
        return ticket.result()

    def drain(self) -> None:
        self.pump()

    def _apply_placement(self, action: str) -> bool:
        """Execute one controller placement decision at the request
        boundary (after ``pump()`` drains the queue), through the very
        same :meth:`reshard`/:meth:`rebalance` seams the CLI drives, at
        the same between-requests point — which is why a
        controller-triggered reshard folds a byte-identical trail to a
        CLI-triggered one.  Returns whether anything moved."""
        if action == "rebalance":
            return (
                hasattr(self.placement, "rebalance")
                and self.rebalance() is not None
            )
        if self.workers < self.controller.policy.max_workers and hasattr(
            self.placement, "with_shards"
        ):
            self.reshard(workers=self.workers + 1)
            return True
        return False

    def _serve_group(self, group: List[Ticket]):
        """Do one unit of work the queue dispatched: a coalesced churn
        group (one epoch sequence, one shared outcome) or one read."""
        request = group[0].request
        if isinstance(request, ChurnRequest):
            return self._serve_churn_group([t.request for t in group])
        if isinstance(request, QueryRequest):
            return answer_query(self.evidence, request)
        if isinstance(request, AdjudicateRequest):
            return self._answer_adjudicate(request)
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _answer_adjudicate(self, request: AdjudicateRequest):
        payload = answer_adjudicate(self.evidence, request)
        if self.ledger is not None:
            self.ledger.fold_adjudications(payload)
            self.admission.update(self.ledger.trust_map())
        self._committed += 1
        if self.journal is not None:
            # a boundary record of its own: rulings and ledger
            # slashing re-derive deterministically from the seq
            self.journal.append("adjudicate", {"seq": request.seq})
            self.journal.sync()
        return payload

    # -- the churn pipeline --------------------------------------------------

    def _serve_churn_group(
        self, requests: Sequence[ChurnRequest]
    ) -> EpochOutcome:
        """Apply a coalesced group's churn as one logical burst, drive
        epochs until quiescent (respawning any workers lost on the
        way), then run every request's probes in admission order."""
        steps = tuple(s for request in requests for s in request.steps)
        marks = tuple(m for request in requests for m in request.marks)
        if steps:
            # one churn-log entry for the whole group: a bootstrap
            # replay applies it exactly as the workers did
            self._churn_log.append(steps)
            self._journal("churn", steps=pack(steps))
        replies = self._broadcast_churn(("churn", steps, marks))
        pending = any(reply for reply in replies if reply)
        outcome = EpochOutcome(coalesced=len(requests))
        coalesced = len(requests)
        while pending:
            report, slices, pending = self._run_epoch(coalesced=coalesced)
            coalesced = 0  # count the group against its first epoch only
            outcome.reports.append(report)
            outcome.slices.extend(slices)
        # respawn before probes so probe ownership needs no rerouting:
        # the replacement adopted the donor's round counter and replica,
        # so its probe rounds land exactly where the reference's do
        outcome.respawns = self._respawn_dead()
        for request in requests:
            for probe in request.probes:
                owner = self.placement.owner(probe.asn, probe.prefix)
                probe_replies = self._broadcast(("probe", probe, owner))
                event = probe_replies[owner]
                if event is None:
                    raise ClusterError(
                        f"worker {owner} returned no probe event"
                    )
                stored = self.evidence.absorb([event])[0]
                outcome.probe_events.append(stored)
                self._journal("event", e=pack(stored), probe=True)
        if outcome.probe_events:
            self.metrics.note_probes(outcome.probe_events)
        self._commit(len(requests))
        return outcome

    def _broadcast_churn(self, command: Tuple) -> List[object]:
        """The churn fan-out, tolerant of workers found dead at send
        time.  A broken pipe here is a death discovered late — the
        worker is reaped, the epoch sequence runs without it (its
        positions backfill like any mid-epoch loss), and the respawn
        path replays the churn from a post-churn donor snapshot.  More
        than ``max_failures_per_epoch`` such discoveries fail loud,
        mirroring the in-epoch budget."""
        found_dead: List[int] = []
        posted: List[int] = []
        for index in self._live_indices():
            try:
                self._workers[index].post(command)
            except (BrokenPipeError, OSError):
                self._note_death(
                    index,
                    "pipe closed at churn broadcast "
                    "(worker process died)",
                    found_dead,
                )
            else:
                posted.append(index)
        replies: List[object] = [None] * len(self._workers)
        for index in posted:
            try:
                replies[index] = self._workers[index].wait()
            except ClusterError:
                self._note_death(
                    index,
                    "pipe closed at churn broadcast "
                    "(worker process died)",
                    found_dead,
                )
        if len(found_dead) > self.spec.max_failures_per_epoch:
            raise ClusterError(
                f"{len(found_dead)} workers ({sorted(found_dead)}) "
                f"found dead at the churn broadcast, above "
                f"max_failures_per_epoch="
                f"{self.spec.max_failures_per_epoch}: "
                + "; ".join(
                    f"worker {i}: {self._dead[i]}"
                    for i in sorted(found_dead)
                )
            )
        if not self._live_indices():
            raise ClusterError("no live workers to serve the churn")
        return replies

    def run_epoch(self) -> EpochOutcome:
        """Drive one co-planned epoch across the cluster right now —
        the unified epoch-driving surface shared with
        :meth:`~repro.audit.monitor.Monitor.run_epoch` (the request
        path drives epochs automatically; this is the direct API)."""
        if self._stopped:
            raise RuntimeError("cluster is stopped")
        report, slices, _pending = self._run_epoch()
        outcome = EpochOutcome(reports=[report], slices=slices)
        outcome.respawns = self._respawn_dead()
        self._commit(0)
        return outcome

    # -- the streaming epoch fold --------------------------------------------

    def _run_epoch(
        self, *, coalesced: int = 0
    ) -> Tuple[EpochReport, List[SliceStats], bool]:
        """One co-planned epoch: stream every live worker's slice,
        fold it into the central trail in plan order as it arrives,
        reap workers that die or stall, and backfill their missing
        positions from a live buddy."""
        epoch_span = self.tracer.begin(
            "epoch", component="cluster", coalesced=coalesced
        )
        try:
            return self._run_epoch_traced(epoch_span, coalesced=coalesced)
        except ClusterError as exc:
            epoch_span.status = "error"
            self._dump_flight(f"ClusterError: {exc}")
            raise
        finally:
            self.tracer.finish(epoch_span)

    def _run_epoch_traced(
        self, epoch_span, *, coalesced: int = 0
    ) -> Tuple[EpochReport, List[SliceStats], bool]:
        trust = None
        if self.ledger is not None:
            with self.tracer.span("settle", component="cluster"):
                self.ledger.settle()
                trust = self.ledger.trust_map()
            self.admission.update(trust)
        command = ("epoch", tuple(self._invalidations), trust)
        self._invalidations = []
        live = self._live_indices()
        if not live:
            raise ClusterError("no live workers to run an epoch")
        fold = SliceFold()
        absorbed: List[object] = []
        headers: Dict[int, PlanHeader] = {}
        summaries: Dict[int, EpochSummary] = {}
        streamed: Dict[int, List[int]] = {}  # index -> [events, fresh]
        new_deaths: List[int] = []
        errors: List[str] = []
        #: index -> the coordinator-side span covering that worker's
        #: in-flight slice (opened at its PlanHeader, closed at its
        #: summary — or reaped)
        slice_spans: Dict[int, object] = {}

        def ingest(index: int, frame) -> None:
            if isinstance(frame, PlanHeader):
                headers[index] = frame
                if epoch_span.epoch is None:
                    epoch_span.epoch = frame.epoch
                    # one plan record per epoch, at the first header:
                    # replay settles the ledger and resets the pending
                    # invalidations here, mirroring the live order
                    self._journal(
                        "plan", epoch=frame.epoch, entries=frame.entries
                    )
                slice_spans[index] = self.tracer.begin(
                    "slice", component="cluster", epoch=frame.epoch,
                    worker=index, detached=True, entries=frame.entries,
                )
                try:
                    fold.set_entries(frame.entries)
                except FoldError as exc:
                    errors.append(f"worker {index}: {exc}")
            elif isinstance(frame, SliceChunk):
                counts = streamed.setdefault(index, [0, 0])
                counts[0] += len(frame.events)
                counts[1] += sum(
                    1 for _, e in frame.events if not e.reused
                )
                self._fold_events(fold, frame.events, absorbed, errors)
            elif isinstance(frame, Heartbeat):
                self.tracer.event(
                    "heartbeat", component="cluster",
                    worker=frame.worker, position=frame.position,
                    backlog=frame.backlog,
                )
            else:
                errors.append(
                    f"worker {index}: unexpected stream frame "
                    f"{type(frame).__name__}"
                )

        def on_summary(index: int, summary) -> None:
            summaries[index] = summary
            span = slice_spans.get(index)
            if span is not None:
                span.attrs["emitted"] = summary.emitted
                self.tracer.finish(span)

        if self._context is None:
            self._drive_epoch_inline(
                live, command, ingest, on_summary, new_deaths, errors
            )
        else:
            self._drive_epoch_process(
                live, command, ingest, on_summary, new_deaths, errors
            )
        if errors:
            raise ClusterError("; ".join(errors))
        if len(new_deaths) > self.spec.max_failures_per_epoch:
            raise ClusterError(
                f"{len(new_deaths)} workers "
                f"({sorted(new_deaths)}) died in one epoch, above "
                f"max_failures_per_epoch={self.spec.max_failures_per_epoch}: "
                + "; ".join(
                    f"worker {i}: {self._dead[i]}" for i in sorted(new_deaths)
                )
            )
        reference = self._check_coplan(headers, summaries)
        epoch, entries = reference.epoch, reference.entries
        epoch_span.epoch = epoch
        # merge the workers' shipped trace records in plan (worker
        # index) order, each batch under its coordinator slice span; a
        # reaped worker's slice span closes with the reap status so the
        # flight dump names what it was doing
        for index in sorted(summaries):
            parent = slice_spans.get(index)
            self.tracer.adopt(
                summaries[index].spans,
                parent=parent.id if parent is not None else epoch_span.id,
            )
        for index in sorted(new_deaths):
            span = slice_spans.get(index)
            if span is not None:
                self.tracer.finish(span, status="reaped")
        fold.set_entries(entries)
        slices = [
            SliceStats(
                worker=index,
                epoch=epoch,
                events=summary.emitted,
                fresh=summary.fresh,
                reused=summary.reused,
                wall_seconds=summary.wall_seconds,
            )
            for index, summary in sorted(summaries.items())
        ]
        for index in sorted(new_deaths):
            events, fresh = streamed.get(index, [0, 0])
            slices.append(
                SliceStats(
                    worker=index,
                    epoch=epoch,
                    events=events,
                    fresh=fresh,
                    reused=events - fresh,
                )
            )
        missing = fold.missing()
        if missing:
            # any unrespawned dead worker justifies backfill — a death
            # in a group's earlier epoch (or at the churn broadcast)
            # leaves its positions missing in every epoch until the
            # group drains and the respawn path runs
            if not self._dead:
                raise ClusterError(
                    f"epoch {epoch}: {fold.received} of {entries} plan "
                    f"entries executed with no worker lost "
                    f"(first missing positions: {missing[:5]})"
                )
            slices.append(
                self._backfill(fold, missing, epoch, absorbed, errors)
            )
            if errors:
                raise ClusterError("; ".join(errors))
        if not fold.complete():
            raise ClusterError(
                f"epoch {epoch}: fold incomplete after backfill "
                f"({fold.progress()})"
            )
        # the coordinator derives next-epoch invalidations from the
        # folded trail itself — a violation streamed by a worker that
        # died a moment later still evicts every shadow of its tuple
        self._invalidations = [
            (e.asn, e.prefix, e.policy, e.spec.recipients)
            for e in absorbed
            if not e.reused and not e.ok()
        ]
        report = EpochReport(epoch=epoch)
        report.events.extend(absorbed)
        report.deferred.extend(reference.deferred)
        report.signatures = sum(e.stats.signatures for e in absorbed)
        report.verifications = sum(
            e.stats.verifications for e in absorbed
        )
        # the coordinator-side wall clock for the whole drive (plan,
        # stream, fold, backfill) — surfaced on EpochOutcome, fed to
        # the control plane, and by construction identical to the
        # trace's epoch span (the one obs timer)
        self.tracer.finish(epoch_span)
        report.wall_seconds = epoch_span.duration
        self.metrics.note_epoch(report, coalesced=coalesced)
        if self.controller is not None:
            self.controller.observe_epoch(
                wall_seconds=report.wall_seconds,
                worker_walls={
                    index: summary.wall_seconds
                    for index, summary in summaries.items()
                },
                shard_loads={s.worker: s.fresh for s in slices},
            )
        for stats in slices:
            self.metrics.note_slice(stats)
            if stats.fresh:
                self.metrics.note_worker(stats.worker, stats.fresh)
        self._seen_pairs.update((e.asn, e.prefix) for e in absorbed)
        self._parity_check(absorbed)
        pending = any(s.pending for s in summaries.values())
        return report, slices, pending

    def _drive_epoch_inline(
        self, live, command, ingest, on_summary, new_deaths, errors
    ) -> None:
        """Inline collection: each worker runs synchronously; its
        buffered stream frames fold before its final reply is read."""
        for index in live:
            worker = self._workers[index]
            worker.post(command)
            for status, frame in worker.take_stream():
                if status == "stream":
                    ingest(index, frame)
            status, payload = worker.reply()
            if status == "ok":
                on_summary(index, payload)
            elif status == "died":
                self._note_death(index, payload, new_deaths)
            else:
                errors.append(f"worker {index}: {payload}")

    def _drive_epoch_process(
        self, live, command, ingest, on_summary, new_deaths, errors
    ) -> None:
        """Process collection: post to every live worker, then fold
        frames as pipes become readable.  A closed pipe, a missed
        epoch deadline, or heartbeat silence reaps the worker."""
        waiting = set()
        for index in live:
            try:
                self._workers[index].post(command)
            except (BrokenPipeError, OSError):
                self._note_death(
                    index,
                    "pipe closed at epoch dispatch "
                    "(worker process died)",
                    new_deaths,
                )
            else:
                waiting.add(index)
        start = time.perf_counter()
        deadline = self.spec.epoch_deadline
        beat = self.spec.heartbeat_interval
        by_conn = {self._workers[i].conn: i for i in waiting}
        last_heard = {index: start for index in waiting}
        while waiting:
            ready = _connection_wait(
                [self._workers[i].conn for i in waiting], timeout=0.05
            )
            now = time.perf_counter()
            for conn in ready:
                index = by_conn[conn]
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    self._note_death(
                        index,
                        "pipe closed mid-epoch (worker process died)",
                        new_deaths,
                    )
                    waiting.discard(index)
                    continue
                last_heard[index] = now
                if status == "stream":
                    ingest(index, payload)
                elif status == "ok":
                    on_summary(index, payload)
                    waiting.discard(index)
                else:
                    errors.append(f"worker {index}: {payload}")
                    waiting.discard(index)
            now = time.perf_counter()
            for index in sorted(waiting):
                if deadline is not None and now - start > deadline:
                    self._note_death(
                        index,
                        f"missed the {deadline:.3f}s epoch deadline",
                        new_deaths,
                    )
                    waiting.discard(index)
                elif beat > 0 and now - last_heard[index] > 5 * beat:
                    self._note_death(
                        index,
                        f"heartbeat silent for "
                        f"{now - last_heard[index]:.3f}s "
                        f"(interval {beat:.3f}s)",
                        new_deaths,
                    )
                    waiting.discard(index)

    def _note_death(
        self, index: int, reason: str, new_deaths: List[int]
    ) -> None:
        if index in self._dead:
            return
        self._dead[index] = reason
        new_deaths.append(index)
        self.tracer.event(
            "reap", component="cluster", worker=index, reason=reason
        )
        # dump before anything closes the worker's in-flight slice
        # span — the forensic record of what it was doing when it died
        self._dump_flight(f"worker {index} reaped: {reason}")
        self._workers[index].kill()

    def _dump_flight(self, reason: str) -> None:
        if self.spec.flight_dump:
            self.recorder.dump(self.spec.flight_dump, reason)

    def _check_coplan(self, headers, summaries) -> EpochSummary:
        """Every live worker must report the identical co-plan."""
        reference: Optional[EpochSummary] = None
        for index in sorted(summaries):
            summary = summaries[index]
            if reference is None:
                reference = summary
            elif (summary.epoch, summary.entries) != (
                reference.epoch,
                reference.entries,
            ):
                raise ClusterError(
                    f"worker {index} diverged from the co-plan: epoch "
                    f"{summary.epoch}/{summary.entries} entries vs "
                    f"{reference.epoch}/{reference.entries}"
                )
        if reference is None:
            raise ClusterError(
                "every live worker died before finishing the epoch"
            )
        for index, header in sorted(headers.items()):
            if (header.epoch, header.entries) != (
                reference.epoch,
                reference.entries,
            ):
                raise ClusterError(
                    f"worker {index} planned epoch "
                    f"{header.epoch}/{header.entries} entries vs "
                    f"{reference.epoch}/{reference.entries}"
                )
        return reference

    def _fold_events(
        self,
        fold: SliceFold,
        pairs,
        absorbed: List[object],
        errors: List[str],
    ) -> None:
        """Push ``(position, event)`` pairs through the reorder buffer;
        absorb whatever extends the contiguous plan-order prefix."""
        for position, event in pairs:
            try:
                ready = fold.add(position, event)
            except FoldError as exc:
                errors.append(str(exc))
                continue
            for item in ready:
                stored = self.evidence.absorb([item])[0]
                absorbed.append(stored)
                op = self._note_mirror(stored)
                self._journal("event", e=pack(stored), m=op)

    def _note_mirror(self, event) -> Optional[str]:
        """Maintain the commitment-cache mirror exactly as each owner
        maintains its cache: a fresh ok verdict caches, a fresh
        violation evicts (never served from cache), a reused event
        leaves the entry untouched.  Returns the decision
        (``"set"``/``"pop"``/``None``) — journaled with the event so
        replay can cross-check its own mirror against the live run's
        (see :func:`repro.journal.recovery.mirror_note`, the one shared
        implementation)."""
        return mirror_note(self._cache_mirror, event, self._choosers)

    def _backfill(
        self,
        fold: SliceFold,
        missing: List[int],
        epoch: int,
        absorbed: List[object],
        errors: List[str],
    ) -> SliceStats:
        """Re-execute a dead worker's unfinished positions on the first
        live buddy.  Fresh positions re-run the planned round there —
        same round number, same nonce, same inputs, so the events are
        byte-identical to what the owner would have streamed; reused
        positions the buddy only shadows are re-emitted from the
        coordinator's own mirror."""
        buddy = self._live_indices()[0]
        span = self.tracer.begin(
            "backfill", component="cluster", epoch=epoch, worker=buddy,
            positions=len(missing),
        )
        result = self._request(buddy, ("backfill", tuple(missing)))
        self.tracer.adopt(result.spans, parent=span.id)
        self._fold_events(fold, result.events, absorbed, errors)
        for position, key in result.reused:
            entry = self._cache_mirror.get(tuple(key))
            if entry is None:
                errors.append(
                    f"backfill position {position}: no mirror entry "
                    f"for {key} to re-emit"
                )
                continue
            self._fold_events(
                fold,
                [(position, reused_event(entry[1], seq=0, epoch=epoch))],
                absorbed,
                errors,
            )
        return SliceStats(
            worker=buddy,
            epoch=epoch,
            events=len(missing),
            fresh=result.fresh,
            reused=len(missing) - result.fresh,
            backfilled=len(missing),
            wall_seconds=self.tracer.finish(span).duration,
        )

    # -- failure respawn -----------------------------------------------------

    def _respawn_dead(self) -> int:
        """Replace every dead worker through the shared bootstrap path
        (donor snapshot + truncated churn-log replay), then seed its
        commitment cache from the mirror for the keys it owns — the
        same migration a reshard runs, so the replacement's reuse
        decisions match the worker it replaces."""
        if not self._dead:
            return 0
        respawned = 0
        for index in sorted(self._dead):
            reason = self._dead[index]
            with self.tracer.span(
                "respawn", component="cluster", worker=index,
                reason=reason,
            ) as span:
                snapshot = self._bootstrap_snapshot()
                self._workers[index] = self._spawn(index, snapshot)
                del self._dead[index]  # live again from here on
                owned = {
                    key: entry
                    for key, entry in self._cache_mirror.items()
                    if self.placement.owner(key[0], key[1]) == index
                }
                if owned:
                    self._request(index, ("install", owned))
                span.attrs["installed"] = len(owned)
            self.metrics.note_respawn(
                worker=index, reason=reason, installed=len(owned)
            )
            respawned += 1
        return respawned

    # -- online resharding ---------------------------------------------------

    def reshard(self, placement: object = None, *, workers: Optional[int] = None):
        """Swap the placement online; migrate what moved.

        ``placement`` is a :class:`~repro.cluster.placement.Placement`
        (or strategy name resolved over ``workers`` slots); passing only
        ``workers`` re-slots the current placement via its
        ``with_shards``.  Growing spawns fast-forwarded workers (the
        same bootstrap path failure respawn uses); shrinking drains and
        stops the surplus.  Returns the reshard record appended to the
        metrics.
        """
        self.pump()  # reshard only between requests
        if placement is None:
            if workers is None:
                raise ValueError("reshard needs a placement or workers=")
            if not hasattr(self.placement, "with_shards"):
                raise ValueError(
                    f"{type(self.placement).__name__} cannot re-slot; "
                    f"pass an explicit placement"
                )
            new = self.placement.with_shards(workers)
        else:
            new = make_placement(
                placement, workers if workers is not None else self.workers
            )
        old = self.placement
        moved = moved_pairs(old, new, self._seen_pairs)
        incumbents = len(self._workers)
        # grow: spawn fast-forwarded workers before any ownership moves
        # (self.placement flips first so they adopt the new map directly)
        self.placement = self.metrics.placement = new
        if new.shards > incumbents:
            snapshot = self._bootstrap_snapshot()
            for index in range(incumbents, new.shards):
                self._workers.append(self._spawn(index, snapshot))
        # every incumbent adopts the placement and exports what moved
        exports_by_owner: Dict[int, Dict[tuple, tuple]] = {}
        for index in range(incumbents):
            exported = self._request(index, ("reshard", new))
            for key, entry in exported.items():
                owner = new.owner(key[0], key[1])
                exports_by_owner.setdefault(owner, {})[key] = entry
        migrated = 0
        for owner, entries in sorted(exports_by_owner.items()):
            migrated += self._request(owner, ("install", entries))
        # shrink: surplus workers exported everything; retire them
        while len(self._workers) > new.shards:
            worker = self._workers.pop()
            worker.post(("stop",))
            worker.wait()
            worker.shutdown()
        self.metrics.note_reshard(
            moved=len(moved),
            tracked=len(self._seen_pairs),
            migrated_entries=migrated,
            placement=new.describe(),
        )
        if self.journal is not None:
            # a boundary: a recovery lands here with the new placement
            self.journal.append(
                "reshard",
                {"placement": pack(new), "workers": new.shards},
            )
            self.journal.sync()
        return self.metrics.reshards[-1]

    def rebalance(self) -> Optional[dict]:
        """Hot-split rebalancing: feed the observed per-worker load back
        into a placement that supports it (``rebalance(loads)``), and
        reshard onto the result if it differs.  Returns the reshard
        record, or ``None`` when the placement left itself unchanged."""
        if not hasattr(self.placement, "rebalance"):
            raise ValueError(
                f"{type(self.placement).__name__} has no rebalance(); "
                f"use the hotsplit placement"
            )
        # the load observed since the previous rebalance decision, not
        # the all-time totals (which would keep splitting a shard that
        # was hot once, long after its slots moved away)
        current = dict(self.metrics.worker_events)
        window = {
            worker: count - self._load_at_rebalance.get(worker, 0)
            for worker, count in current.items()
        }
        self._load_at_rebalance = current
        new = self.placement.rebalance(window)
        if new == self.placement:
            return None
        return self.reshard(new)

    # -- parity and views ----------------------------------------------------

    def _parity_check(self, events: Sequence[object]) -> None:
        """Re-prove a sample of fresh verdicts in the coordinator and
        compare — the cross-process analogue of the serve layer's
        self-check.  Failures are counted, never raised; CI gates on the
        counter staying zero."""
        sample = self.spec.parity_sample
        if sample < 1:
            return
        checked = failed = 0
        fresh = [e for e in events if not e.reused]
        for event in fresh[::sample]:
            chooser = self._choosers.get(event.policy)
            if callable(chooser) and not isinstance(chooser, str):
                continue  # a live chooser cannot be replayed here
            replay, _ = run_offwire_round(
                self.keystore,
                event.spec,
                event.routes,
                round=event.round,
                rng_seed=self.spec.rng_seed,
                chooser=chooser,
            )
            checked += 1
            if not reports_match(replay, event.report):
                failed += 1
        self.metrics.note_parity(checked, failed)
        if failed:
            self.tracer.event(
                "parity-failure", component="cluster",
                checked=checked, failed=failed,
            )
            self._dump_flight(
                f"{failed} of {checked} parity self-checks failed"
            )

    def worker_counts(self) -> List[Dict[str, int]]:
        """Each worker's crypto/transport counters (debug/metrics)."""
        return list(self._broadcast(("counts",)))

    def challenge(self, seq: Optional[int] = None, *, judge=None):
        """Run the ledger's challenge/adjudicate desk over the folded
        trail: adjudicate recorded violations (all of them, or one by
        ``seq``) and slash the ASes whose evidence is upheld."""
        if self.ledger is None:
            raise ClusterError("cluster has no ledger configured")
        from repro.ledger import run_challenge

        return run_challenge(self.ledger, seq=seq, judge=judge)

    def snapshot(self) -> Dict[str, object]:
        """The schema-versioned cluster metrics document (with the
        ledger's own schema-versioned snapshot under ``"ledger"`` when
        one is configured)."""
        document = self.metrics.snapshot()
        if self.ledger is not None:
            document["ledger"] = self.ledger.snapshot()
        if self.journal is not None:
            document["journal"] = self.journal.stats()
        return document
