"""The cluster coordinator: one monitor, one round pool, one journal.

A :class:`Cluster` is built from a :class:`~repro.cluster.spec.ClusterSpec`
and owns **the** :class:`~repro.audit.monitor.Monitor`
(``spec.build_monitor()``: the network, the reuse cache, the evidence
store, the ledger that listens to it).  It is the only coordinator:
its own synchronous door (``submit`` / ``pump`` / ``request``) and the
asyncio door (:class:`~repro.serve.service.VerificationService`) both
loop ``queue.next_group()`` → :meth:`Cluster.serve_group` →
``queue.resolve()`` / ``queue.fail()`` over the same layers:

* **admission** — writes (churn, adjudication) queue in the
  :class:`~repro.cluster.admission.AdmissionQueue`, refused at the door
  past ``spec.queue_depth``; up to ``spec.coalesce_max`` adjacent churn
  requests ride a single epoch sequence and share one
  :class:`~repro.audit.events.EpochOutcome`;
* **churn → verdict** — a churn group is applied as one burst, then
  each epoch is planned once, here, its fresh rounds dealt evenly in
  plan order to the stateless worker pool (:mod:`repro.cluster.pool`:
  forked processes for the ``"process"`` transport, the same loop
  in-process for ``"inline"``) and folded back by
  :func:`~repro.audit.monitor.fold_plan`, the fold the serial monitor
  records through; probes run last, on the monitor's own wire path
  (Byzantine deviations must see real transport).  The trail is
  byte-identical to an unsharded monitor's — seq for seq, round for
  round, verdict for verdict, crypto count for crypto count — whoever
  ran what, and across worker deaths: a dead worker's unfinished rounds
  are re-run on a survivor and a fresh worker is forked in its place;
* **adjudication** — an ``AdjudicateRequest`` runs the judge over the
  trail and folds the rulings into the (settled) ledger: the one path
  from a recorded violation to a slash, queued and journaled like any
  write;
* **durability** — with ``spec.journal`` set the coordinator keeps a
  write-ahead journal (:mod:`repro.journal`) of the commands it serves —
  each churn group whole, commits (each with the epoch counter),
  adjudications — and of checkpoints, fsynced at each commit boundary,
  so a coordinator killed mid-run restarts at the last boundary with a
  byte-identical trail, the same rulings and the same trust ladder: the
  replacement ``Cluster`` forks a fresh pool, restores the last
  checkpoint and re-serves the commands committed after it, through the
  same code, before it attaches the journal.

The pool forks first, whether the coordinator starts fresh or recovers:
on an empty key table, before the monitor, the network or the journal
exist in the parent, so a stateless worker inherits nothing of the
coordinator's, and its keys ride its first batch.  What travels back is
a receipt per round (:meth:`~repro.pvr.session.SessionReport.receipt`):
verdicts, evidence and a digest of what was sent, never the
transcript.

Queries never reach ``serve_group``: the queue answers them at the
door from the evidence store's committed view, whose watermark
``serve_group`` advances after each write group commits — so readers
always see a consistent trail, as of the last committed group, without
waiting for the one in flight.
"""

from __future__ import annotations

from typing import Dict, List

from repro.audit.events import EpochOutcome
from repro.audit.monitor import EpochPlan, fold_plan
from repro.audit.store import EvidenceStore
from repro.audit.wire import RoundResult, reports_match, run_offwire_round
from repro.journal.journal import Journal, JournalError, pack
from repro.journal.recovery import (
    JOURNAL_FORMAT,
    genesis,
    recover_state,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext
from repro.pvr.scenarios import apply_step

from repro.cluster.admission import AdmissionQueue, Ticket
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.pool import ClusterError, ShardExecutor
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
    Completion,
    answer_adjudicate,
)
from repro.cluster.spec import ClusterSpec

__all__ = ["Cluster", "ClusterError", "EpochOutcome"]


class Cluster:
    """One planning monitor over a pool of stateless round workers,
    behind one admission plane."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        #: the coordinator's write-ahead log (:mod:`repro.journal`);
        #: ``None`` unless the spec names a journal directory, and until
        #: a recovery has re-served what the journal committed
        self.journal = None
        # the pool forks first, from a coordinator that holds nothing
        # yet: its keys reach the workers with their first batch
        keystore = spec.build_keystore()
        self.executor = ShardExecutor(
            spec.workers,
            keystore,
            spec.rng_seed,
            transport=spec.transport,
            chaos=spec.chaos,
        )
        self.executor.warm()
        journal = None
        try:
            journal = Journal(spec.journal) if spec.journal else None
            recovered = (
                recover_state(spec, journal, keystore=keystore)
                if journal else None
            )
            self._build(recovered, keystore)
        except BaseException:
            # refused (another format or spec) or failed part-way
            self.executor.backend.close()
            if journal is not None:
                journal.close()
            raise
        self.journal = journal
        if journal is not None and recovered is None:
            journal.append("genesis", genesis(spec, self.monitor.keystore))
            journal.sync()
        self._stopped = False

    def _build(self, recovered, keystore) -> None:
        """Assemble the coordinator on the pool's ``keystore``, fresh or
        at ``recovered``'s last checkpoint; a recovery then re-serves
        the commands journaled after the checkpoint."""
        spec = self.spec
        try:
            #: the one monitor — fresh, or rebuilt at the journal's
            #: last checkpoint
            self.monitor = spec.build_monitor(recovered, keystore=keystore)
        except Exception as exc:
            if recovered is None or not recovered.checkpoint:
                raise
            raise JournalError(
                f"journal record {recovered.checkpoint}: checkpoint does "
                f"not restore ({type(exc).__name__}: {exc})"
            ) from exc
        #: accountability ledger over the trail (None when the spec
        #: leaves it off)
        self.ledger = self.monitor.ledger
        # the seq the next checkpoint's events start after
        self._checkpointed_seq = self.evidence.counters()["seq"]
        #: causal tracing + crash forensics (:mod:`repro.obs`): every
        #: closed record rings through the flight recorder, which dumps
        #: JSONL at the failure sites (worker reap, parity failure,
        #: ClusterError) when the spec names a ``flight_dump`` path
        self.recorder = FlightRecorder()
        self.tracer = self.monitor.tracer = self.recorder.attach(
            TraceContext("c", enabled=spec.trace)
        )
        self.metrics = ClusterMetrics()
        #: mutating (churn/adjudicate) requests committed so far —
        #: journaled at each commit boundary so a recovered run knows
        #: how much of its script already happened
        self._committed = 0
        commands = recovered.commands if recovered is not None else ()
        if recovered is not None:
            self._committed = recovered.committed_requests
            for seq, requests in commands:
                # the journal is not attached yet: nothing is appended
                try:
                    self._serve(list(requests))
                except Exception as exc:
                    raise JournalError(
                        f"journal record {seq}: the command does not "
                        f"re-serve ({type(exc).__name__}: {exc})"
                    ) from exc
            # re-served epochs count in the recovery record, not in the
            # metrics of the run that follows
            self.metrics = ClusterMetrics()
            self.metrics.note_recovery(
                records=recovered.replayed_records,
                truncated=recovered.truncated_records,
                committed=self._committed,
                epoch=self.monitor.epoch,
                re_served=len(commands),
                spawned=spec.workers,
                keys_generated=self.monitor.keystore.generated,
            )
            self.tracer.event(
                "recover", component="cluster",
                records=recovered.replayed_records,
                truncated=recovered.truncated_records,
                epoch=self.monitor.epoch, re_served=len(commands),
            )
        self.metrics.placement = self.executor
        #: how many committed requests the journal held (0 on a fresh
        #: start) — the CLI skips this many script entries
        self.recovered_requests = self._committed
        # the checkpoint cadence continues across the crash
        self._boundaries_since_checkpoint = len(commands)
        # a recovered trail is committed by definition: readers see it
        # from the first request on (a no-op on a fresh, empty store)
        self.evidence.commit()
        #: the admission plane a door submits into and dispatches from
        self.queue = AdmissionQueue(
            self.metrics,
            self.evidence,
            depth=spec.queue_depth,
            coalesce_max=spec.coalesce_max,
        )

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

    def _commit(self, requests: int, rtype: str, data: dict) -> None:
        """Mark a commit boundary: ``requests`` mutating requests are
        now fully served.  With a journal this is the durable cut
        recovery rolls forward to — the boundary record (``commit`` for
        a churn group, ``adjudicate`` for a ruling) fsyncs, and every
        ``spec.journal_checkpoint_every`` boundaries a checkpoint
        follows."""
        self._committed += requests
        if self.journal is None:
            return
        self.journal.append(rtype, data)
        self.journal.sync()
        self._boundaries_since_checkpoint += 1
        every = self.spec.journal_checkpoint_every
        if every > 0 and self._boundaries_since_checkpoint >= every:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Capture the coordinator's state into the journal: recovery
        restores it and re-serves only the commands after it.  The
        pickled network bakes in every churn step so far.  An unbounded
        store's checkpoint carries only the events recorded since the
        previous one, so it is appended and fsynced once and costs the
        same however long the trail grows.  A ``max_events`` store's
        checkpoint carries the whole (bounded) store and compacts the
        journal to itself, so the file holds at most the bound plus one
        interval's commands."""
        evidence = self.evidence
        compact = evidence.max_events is not None
        with self.tracer.span("checkpoint", component="cluster") as span:
            if compact:
                store = evidence.checkpoint_state()
                events = store["events"]
            else:
                store = evidence.counters()
                events = evidence.since(self._checkpointed_seq)
            record = pack({
                "format": JOURNAL_FORMAT,
                "store": store,
                "events": () if compact else events,
                "planning": self.monitor.planning_state(),
                "ledger": self.ledger,
                "network": self.monitor.pickled_network(),
                "committed": self._committed,
                "keys": self.monitor.keystore.table(),
            })
            if compact:
                self.journal.checkpoint(record)
            else:
                self.journal.append("checkpoint", record)
                self.journal.sync()
            span.attrs.update(
                bytes=len(record), events=len(events), compacted=compact
            )
        self._checkpointed_seq = store["seq"]
        self._boundaries_since_checkpoint = 0

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

    def serve_group(self, group: List[Ticket]):
        """Do one unit of work the queue dispatched — a coalesced churn
        group (one epoch sequence, one shared outcome) or one
        adjudication — commit it, advance the watermark reads are cut
        at, and return its payload for the door (``pump()`` or the
        asyncio one) to settle.  A group that raises advances nothing:
        whatever it recorded becomes readable with the next group that
        commits."""
        payload = self._serve([ticket.request for ticket in group])
        self.evidence.commit()
        return payload

    def _serve(self, requests: List[object]):
        request = requests[0]
        if isinstance(request, ChurnRequest):
            return self._serve_churn_group(requests)
        if isinstance(request, AdjudicateRequest):
            return self._answer_adjudicate(request)
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _serve_churn_group(self, requests: List[ChurnRequest]) -> EpochOutcome:
        """Apply a coalesced group's churn as one burst, run epochs
        until nothing is pending (a work bound may defer pairs), then
        every request's probes in admission order.  Metrics absorb each
        epoch as it lands, so a failure later in the group cannot leave
        recorded evidence unaccounted for."""
        monitor = self.monitor
        network = monitor.network
        if self.journal is not None:
            # write-ahead: the whole group, which a recovery re-serves
            # through this method — so only what pickles is admitted
            try:
                record = pack(tuple(requests))
            except Exception as exc:
                raise JournalError(
                    f"churn group cannot be journaled ({type(exc).__name__}"
                    f": {exc})"
                ) from exc
            self.journal.append("churn", {"requests": record})
        outcome = EpochOutcome(coalesced=len(requests))
        try:
            for request in requests:
                for step in request.steps:
                    apply_step(step, network)
                for asn, prefix in request.marks:
                    monitor.mark(asn, prefix)
            network.run_to_quiescence()
            coalesced = len(requests)
            while monitor.pending():
                self._run_epoch(outcome, coalesced=coalesced)
                coalesced = 0  # count the group against its first epoch only
            for request in requests:
                for probe in request.probes:
                    outcome.probe_events.append(
                        monitor.audit_once(
                            probe.asn,
                            probe.prefix,
                            probe.recipient,
                            prover=(
                                probe.prover(monitor.keystore)
                                if probe.prover is not None
                                else None
                            ),
                            max_length=probe.max_length,
                        )
                    )
        except Exception:
            if self.journal is not None:
                # what a failed group did is no command a recovery can
                # re-serve: checkpoint it before the failure is reported
                self._write_checkpoint()
            raise
        if outcome.probe_events:
            self.metrics.note_probes(outcome.probe_events)
        self._commit(
            len(requests),
            "commit",
            {"requests": len(requests), "epoch": monitor.epoch},
        )
        return outcome

    def _answer_adjudicate(self, request: AdjudicateRequest):
        """Run the judge and fold its rulings into the ledger: the one
        path from a recorded violation to a slash.  Served between
        groups, when every recorded epoch is complete: the ledger
        settles them all before the rulings fold."""
        payload = answer_adjudicate(self.evidence, request)
        if self.ledger is not None:
            self.ledger.settle()
            self.ledger.fold_adjudications(payload)
        # a boundary record of its own: rulings and ledger slashing
        # re-derive deterministically from the seq
        self._commit(1, "adjudicate", {"seq": request.seq})
        return payload

    # -- one epoch -----------------------------------------------------------

    def _run_epoch(self, outcome: EpochOutcome, *, coalesced: int) -> None:
        """Plan centrally, verify on the pool, fold in plan order, and
        add the epoch's report, per-worker slices and respawns to
        ``outcome``.  Spans are the coordinator's (``component=
        "cluster"``) whichever door the request came through."""
        monitor, tracer = self.monitor, self.tracer
        epoch_span = tracer.begin(
            "epoch", component="cluster", coalesced=coalesced
        )
        try:
            plan = monitor.plan_epoch()
        except Exception:
            # nothing was planned, so there are no entries to re-mark
            tracer.finish(epoch_span, status="error")
            raise
        epoch_span.epoch = plan.epoch
        try:
            fresh = plan.fresh_entries()
            neighbors = monitor.network.transport.neighbors
            fanout = {
                entry.item.spec.prover: len(neighbors(entry.item.spec.prover))
                for _, entry in fresh
            }
            outcomes, slices, reaped = self.executor.execute(
                fresh,
                fanout,
                epoch=plan.epoch,
                tracer=tracer,
                on_reap=self._dump_flight,
            )
            with tracer.span("merge", component="cluster", epoch=plan.epoch):
                report = fold_plan(monitor, plan, outcomes)
        except Exception as exc:
            monitor.requeue(plan)
            tracer.finish(epoch_span, status="error")
            if isinstance(exc, ClusterError):
                self._dump_flight(f"ClusterError: {exc}")
            raise
        # the one obs timer: the epoch span both frames the trace and
        # pins the report's wall
        tracer.finish(epoch_span)
        report.wall_seconds = epoch_span.duration
        self.metrics.note_epoch(report, coalesced=coalesced)
        for stats in slices:
            self.metrics.note_slice(stats)
        for worker, reason in reaped:
            self.metrics.note_respawn(worker=worker, reason=reason)
        outcome.reports.append(report)
        outcome.slices.extend(slices)
        outcome.respawns += len(reaped)
        self._parity_check(plan, outcomes, fanout)

    def _parity_check(
        self,
        plan: EpochPlan,
        outcomes: Dict[int, RoundResult],
        fanout: Dict[str, int],
    ) -> None:
        """Re-prove every ``spec.parity_sample``-th shipped verdict
        in-process and compare — catches anything that could make a
        worker diverge from the planner's promise (pickling loss,
        nondeterminism, a bad fold, other bytes sent) without paying for
        a full shadow monitor.  Failures are counted, never raised: the
        CI smoke jobs gate on the counter staying zero."""
        sample = self.spec.parity_sample
        if sample < 1:
            return
        checked = failed = 0
        for position in sorted(outcomes)[::sample]:
            entry = plan.entries[position]
            replay = run_offwire_round(
                self.monitor.keystore,
                entry.item.spec,
                entry.item.routes,
                round=entry.round,
                rng_seed=self.monitor.rng_seed,
                chooser=entry.chooser,
                neighbor_count=fanout[entry.item.spec.prover],
            )
            checked += 1
            if not reports_match(replay, outcomes[position]):
                failed += 1
        self.metrics.note_parity(checked, failed)
        if failed:
            self.tracer.event(
                "parity-failure", component="cluster",
                epoch=plan.epoch, checked=checked, failed=failed,
            )
            self._dump_flight(
                f"{failed} of {checked} parity self-checks failed"
            )

    def _dump_flight(self, reason: str) -> None:
        if self.spec.flight_dump:
            self.recorder.dump(self.spec.flight_dump, reason)

    # -- the metrics document ------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The schema-versioned cluster metrics document (with the
        ledger's own schema-versioned snapshot under ``"ledger"`` when
        one is configured)."""
        document = self.metrics.snapshot()
        # keypairs this coordinator made: its round parties' at a fresh
        # build, none after a recovery that loaded them
        document["keys_generated"] = self.monitor.keystore.generated
        if self.ledger is not None:
            document["ledger"] = self.ledger.snapshot()
        if self.journal is not None:
            document["journal"] = self.journal.stats()
        return document
