"""The cluster coordinator: one monitor, one round pool, one journal.

A :class:`Cluster` is built from a :class:`~repro.cluster.spec.ClusterSpec`
and owns **the** :class:`~repro.audit.monitor.Monitor`
(``spec.build_monitor()``: the network, the reuse cache, the evidence
store, the ledger-bound sampling policy).  It is the only coordinator:
its own synchronous door (``submit`` / ``pump`` / ``request``) and the
asyncio door (:class:`~repro.serve.service.VerificationService`) both
loop ``queue.next_group()`` → :meth:`Cluster.serve_group` →
``queue.resolve()`` / ``queue.fail()`` over the same three layers:

* **admission** — writes (churn, adjudication) queue in the
  :class:`~repro.cluster.admission.AdmissionQueue`, refused at the door
  past ``spec.queue_depth``; up to ``spec.coalesce_max`` adjacent churn
  requests ride a single epoch sequence and share one
  :class:`~repro.audit.events.EpochOutcome`;
* **the pipeline** — :class:`~repro.cluster.pipeline.Pipeline` plans
  each epoch once, here, and deals its fresh rounds to the stateless
  worker pool (:mod:`repro.cluster.pool`: forked processes for the
  ``"process"`` transport, the same loop in-process for ``"inline"``).
  The trail is byte-identical to an unsharded monitor's — seq for seq,
  round for round, verdict for verdict, crypto count for crypto count —
  whoever ran what, and across worker deaths: a dead worker's
  unfinished rounds are re-run on a survivor and a fresh worker is
  forked in its place;
* **durability** — with ``spec.journal`` set the coordinator keeps a
  write-ahead journal (:mod:`repro.journal`) of its own state changes —
  churn admissions, epoch plans, recorded events, commits,
  adjudications — fsynced at each commit boundary, so a coordinator
  killed mid-run restarts at the last boundary with a byte-identical
  trail: the replacement ``Cluster`` replays the journal into a rebuilt
  monitor and forks a fresh pool.

Queries never reach ``serve_group``: the queue answers them at the
door from the evidence store's committed view, whose watermark
``serve_group`` advances after each write group commits — so readers
always see a consistent trail, as of the last committed group, without
waiting for the one in flight.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.audit.events import EpochOutcome
from repro.audit.store import EvidenceStore
from repro.journal.journal import Journal, pack
from repro.journal.recovery import (
    JOURNAL_FORMAT,
    genesis_fingerprint,
    recover_state,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext

from repro.cluster.admission import AdmissionQueue, Ticket
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.pipeline import Pipeline
from repro.cluster.pool import ClusterError, ShardExecutor
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
    Completion,
)
from repro.cluster.spec import ClusterSpec

__all__ = ["Cluster", "ClusterError", "EpochOutcome"]


class Cluster:
    """One planning monitor over a pool of stateless round workers,
    behind one admission plane."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        #: the coordinator's write-ahead log (:mod:`repro.journal`);
        #: ``None`` unless the spec names a journal directory
        self.journal = None
        recovered = None
        if spec.journal:
            self.journal = Journal(
                spec.journal,
                segment_max_records=spec.journal_segment_records,
            )
            try:
                recovered = recover_state(spec, self.journal)
            except BaseException:
                self.journal.close()  # refused: another format or spec
                raise
        #: the one monitor — fresh, or rebuilt at the journal's last
        #: commit boundary
        self.monitor = spec.build_monitor(recovered)
        #: accountability ledger over the trail (None when the spec
        #: leaves it off)
        self.ledger = self.monitor.ledger
        # a recovered trail is committed by definition: readers see it
        # from the first request on (a no-op on a fresh, empty store)
        self.evidence.commit()
        self.metrics = ClusterMetrics()
        #: the admission plane a door submits into and dispatches from
        self.queue = AdmissionQueue(
            self.metrics,
            self.evidence,
            depth=spec.queue_depth,
            coalesce_max=spec.coalesce_max,
        )
        #: causal tracing + crash forensics (:mod:`repro.obs`): every
        #: closed record rings through the flight recorder, which dumps
        #: JSONL at the failure sites (worker reap, parity failure,
        #: ClusterError) when the spec names a ``flight_dump`` path
        self.recorder = FlightRecorder()
        self.tracer = self.monitor.tracer = self.recorder.attach(
            TraceContext("c", enabled=spec.trace)
        )
        self.executor = ShardExecutor(
            spec.workers,
            self.monitor.keystore,
            spec.rng_seed,
            transport=spec.transport,
            epoch_deadline=spec.epoch_deadline,
            heartbeat_interval=spec.heartbeat_interval,
            max_failures_per_epoch=spec.max_failures_per_epoch,
            chaos=spec.chaos,
        )
        self._pipeline = Pipeline(
            self.monitor,
            self.executor,
            self.metrics,
            self.recorder,
            self.tracer,
            ledger=self.ledger,
            parity_sample=spec.parity_sample,
            flight_dump=spec.flight_dump,
            on_plan=self._journal_plan,
        )
        #: how many committed requests a recovery replayed (0 on a
        #: fresh start) — the CLI skips this many script entries
        self.recovered_requests = (
            recovered.committed_requests if recovered is not None else 0
        )
        #: mutating (churn/adjudicate) requests committed so far —
        #: journaled at each commit boundary so a recovered run knows
        #: how much of its script already happened
        self._committed = self.recovered_requests
        self._commits_since_checkpoint = 0
        self.executor.warm()
        if recovered is not None:
            self.metrics.note_recovery(
                records=recovered.replayed_records,
                truncated=recovered.truncated_records,
                committed=recovered.committed_requests,
                epoch=recovered.epoch,
                spawned=spec.workers,
            )
            self.tracer.event(
                "recover", component="cluster",
                records=recovered.replayed_records,
                truncated=recovered.truncated_records,
                epoch=recovered.epoch, round=recovered.round_counter,
            )
        elif self.journal is not None:
            self.journal.append("genesis", genesis_fingerprint(spec))
            self.journal.sync()
        if self.journal is not None:
            # subscribed after replay, so adopted events are not
            # journaled twice — and after the ledger, which folds each
            # event before it is durable, exactly as replay re-folds it
            self.evidence.subscribe(
                lambda event: self.journal.append("event", {"e": pack(event)})
            )
        self._stopped = False

    # -- accessors -----------------------------------------------------------

    @property
    def evidence(self) -> EvidenceStore:
        """The authoritative trail: the monitor's own store."""
        return self.monitor.evidence

    @property
    def workers(self) -> int:
        return self.spec.workers

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Stop every worker and close the journal (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.executor.backend.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- durability (the write-ahead journal) --------------------------------

    def _journal_plan(self, plan) -> None:
        """One plan record per epoch: replay settles the ledger here,
        where the live planner just did."""
        if self.journal is not None:
            self.journal.append(
                "plan", {"epoch": plan.epoch, "entries": len(plan.entries)}
            )

    def _commit(self, requests: int) -> None:
        """Mark a commit boundary: ``requests`` mutating requests are
        now fully served.  With a journal this is the durable cut
        recovery rolls forward to — the commit record fsyncs, and
        every ``spec.journal_checkpoint_every`` commits the full
        coordinator state checkpoints (compacting the journal)."""
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
        """Capture the coordinator's state into the journal and
        compact: replay restarts from here.  The pickled network bakes
        in every churn step so far, so the replay suffix stays bounded
        by the checkpoint interval, not the cluster's lifetime."""
        with self.tracer.span("checkpoint", component="cluster") as span:
            network = self.monitor.pickled_network()
            state = {
                "format": JOURNAL_FORMAT,
                "store": self.evidence.checkpoint_state(),
                "planning": self.monitor.planning_state(),
                "ledger": self.ledger,
                "network": network,
                "committed": self._committed,
            }
            self.journal.checkpoint(pack(state))
            span.attrs["bytes"] = len(network)
        self._commits_since_checkpoint = 0

    # -- admission -----------------------------------------------------------

    def submit(self, request) -> Ticket:
        """Admit one request: a read comes back answered, a write is
        queued or refused with
        :class:`~repro.cluster.requests.AdmissionError`."""
        if self._stopped:
            raise RuntimeError("cluster is stopped")
        return self.queue.submit(request)

    def pump(self) -> None:
        """Serve everything pending, in admission order.  Adjacent
        churn requests coalesce (up to ``spec.coalesce_max``): one
        epoch sequence serves the whole group and every ticket shares
        its :class:`~repro.audit.events.EpochOutcome`."""
        while group := self.queue.next_group():
            try:
                payload = self.serve_group(group)
            except Exception as exc:
                self.queue.fail(group, exc)
            else:
                self.queue.resolve(group, payload)

    def request(self, request) -> Completion:
        """Admit one request, serve the queue, return its completion."""
        ticket = self.submit(request)
        self.pump()
        return ticket.result()

    def drain(self) -> None:
        self.pump()

    def serve_group(self, group: List[Ticket]):
        """Do one unit of work the queue dispatched — a coalesced churn
        group (one epoch sequence, one shared outcome) or one
        adjudication — commit it, advance the watermark reads are cut
        at, and return its payload for the door (``pump()`` or the
        asyncio one) to settle.  A group that raises advances nothing:
        whatever it recorded becomes readable with the next group that
        commits."""
        request = group[0].request
        if isinstance(request, ChurnRequest):
            payload = self._serve_churn_group([t.request for t in group])
        elif isinstance(request, AdjudicateRequest):
            payload = self._answer_adjudicate(request)
        else:
            raise TypeError(f"unknown request type {type(request).__name__}")
        self.evidence.commit()
        return payload

    def _serve_churn_group(self, requests: List[ChurnRequest]) -> EpochOutcome:
        steps = tuple(s for request in requests for s in request.steps)
        if steps and self.journal is not None:
            # write-ahead: one churn record for the whole group, which
            # a recovery re-applies exactly as the pipeline is about to
            self.journal.append("churn", {"steps": pack(steps)})
        outcome = self._pipeline.serve_churn_group(requests)
        self._commit(len(requests))
        return outcome

    def _answer_adjudicate(self, request: AdjudicateRequest):
        payload = self._pipeline.answer_adjudicate(request)
        self._committed += 1
        if self.journal is not None:
            # a boundary record of its own: rulings and ledger
            # slashing re-derive deterministically from the seq
            self.journal.append("adjudicate", {"seq": request.seq})
            self.journal.sync()
        return payload

    # -- the ledger desk and the metrics document ----------------------------

    def challenge(self, seq: Optional[int] = None, *, judge=None):
        """Run the ledger's challenge/adjudicate desk over the trail:
        adjudicate recorded violations (all of them, or one by ``seq``)
        and slash the ASes whose evidence is upheld."""
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
