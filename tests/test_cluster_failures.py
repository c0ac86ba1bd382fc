"""Failure tolerance: chaos-injected worker deaths, retry on a
survivor, respawn, epoch coalescing — and, generated by Hypothesis, a
worker kill combined with a coordinator crash at any journal record or
recorded event.

The invariant under test everywhere: a worker lost mid-batch — killed
between streamed results, SIGKILLed at the OS level, or hung until the
pool's one liveness rule (no frame for ``SILENCE_LIMIT_S`` while it owes
results) reaps it — leaves the evidence trail **byte-identical** to an
unsharded reference monitor, because its unfinished rounds are re-run
on a survivor under the same round numbers and nonces, and a fresh
worker is forked in its place.  More than one death in one epoch is a
loud :class:`ClusterError`.
"""

import asyncio
import functools
import itertools
import shutil
import tempfile
import threading

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ChurnRequest, pool
from repro.cluster.cluster import ClusterError
from repro.cluster.spec import ChaosSpec, ClusterSpec
from repro.cluster.workload import (
    churn_script,
    drive_monitor,
    reference_mismatches,
    trail_mismatches,
)
from repro.serve import service as service_module

from serve_driver import service_for
from test_cluster import PREFIXES, VARIANT_POLICIES, make_spec, run_script


def chaos_spec(variant="minimum", **overrides):
    """A 3-worker spec whose worker 1 dies in epoch 2, after streaming
    exactly one result (its whole share of a 3-round epoch)."""
    options = dict(
        chaos=ChaosSpec(worker=1, epoch=2, after=1),
    )
    options.update(overrides)
    return make_spec(variant, **options)


#: the double-death ClusterError states the one-death rule
DOUBLE_DEATH = "died in one epoch; a pool survives at most 1 death"


def finish_within(seconds, drive, backend):
    """Run ``drive`` in a thread, and fail if it has not returned after
    ``seconds``: a worker nothing reaps must fail the test, not stall
    the suite.  On the timeout every worker of ``backend`` is SIGKILLed,
    so the thread unwinds before the failure is reported."""
    outcome = {}

    def run():
        try:
            drive()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        for worker in list(backend._workers):
            worker.process.kill()
        thread.join(30)
        pytest.fail(f"a hung worker was not reaped within {seconds:g}s")
    if "error" in outcome:
        raise outcome["error"]


def reap_a_hung_worker(monkeypatch, door):
    """Drive a script on ``door`` ("cluster" or "service") while one
    worker hangs without dying: it owes results and sends no frame, so
    the pool's one liveness rule must reap it, re-run its rounds on a
    survivor and fork a replacement, with no setting on either door.
    The limit is shortened so the run takes seconds."""
    monkeypatch.setattr(pool, "SILENCE_LIMIT_S", 1.0)
    requests = churn_script(PREFIXES, rounds=4)
    if door == "cluster":
        spec = make_spec(
            "minimum",
            transport="process",
            chaos=ChaosSpec(worker=2, epoch=3, mode="hang"),
        )
        host = spec.build()

        def drive():
            try:
                for request in requests:
                    host.request(request)
            finally:
                host.stop()
    else:
        spec = make_spec(
            "minimum",
            transport="process",
            workers=2,
            chaos=ChaosSpec(worker=1, epoch=3, mode="hang"),
        )
        # the service has no chaos keyword: hand it to the spec the
        # service builds its private cluster from
        monkeypatch.setattr(
            service_module,
            "ClusterSpec",
            functools.partial(ClusterSpec, chaos=spec.chaos),
        )
        host = service_for(spec)

        async def serve():
            await host.start()
            try:
                for request in requests:
                    await host.request(request)
            finally:
                await host.stop()

        def drive():
            asyncio.run(serve())

    finish_within(20.0, drive, host.executor.backend)
    [respawn] = host.metrics.respawns
    assert respawn["worker"] == spec.chaos.worker
    assert "silent for" in respawn["reason"]
    assert reference_mismatches(spec, requests, host.evidence) == []


# -- chaos kills across the protocol variants ---------------------------------


class TestChaosKillParity:
    """The acceptance criterion survives a mid-slice worker death."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_kill_mid_slice_stays_byte_identical(self, variant):
        spec = chaos_spec(variant)
        requests = churn_script(PREFIXES, rounds=5, violation_every=3)
        cluster, evidence = run_script(spec, requests)
        assert cluster.metrics.respawns, "the chaos kill never fired"
        assert reference_mismatches(spec, requests, evidence) == []
        assert cluster.metrics.parity_failed == 0

    @pytest.mark.parametrize("workers,after", [
        (3, 0), (3, 1), (2, 0), (2, 1), (2, 2),
    ])
    def test_kill_at_any_point_of_a_batch(self, workers, after):
        """``after`` ∈ {0, 1, mid, last}: worker 0's share of a 3-round
        epoch is one round of three workers' or two of two workers' —
        it dies before its first round, between rounds, and after its
        last result is out."""
        spec = chaos_spec(
            workers=workers,
            chaos=ChaosSpec(worker=0, epoch=2, after=after),
        )
        requests = churn_script(PREFIXES, rounds=4, violation_every=3)
        cluster, evidence = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert "chaos kill" in respawn["reason"]
        assert f"after {after} results" in respawn["reason"]
        assert reference_mismatches(spec, requests, evidence) == []

    def test_backfill_and_respawn_are_recorded(self):
        spec = chaos_spec(chaos=ChaosSpec(worker=1, epoch=2, after=0))
        requests = churn_script(PREFIXES, rounds=5, violation_every=3)
        cluster, _ = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert respawn["worker"] == 1
        assert "chaos kill" in respawn["reason"]
        # a survivor re-ran the dead worker's unfinished positions
        assert sum(cluster.metrics.backfilled.values()) >= 1
        assert 1 not in cluster.metrics.backfilled  # never its own buddy
        # the replacement rejoined and kept executing batches
        assert cluster.workers == 3
        assert cluster.metrics.slice_events[1] > 0

    def test_kill_before_first_event_backfills_whole_slice(self):
        """``after=0`` dies before its first round: every position the
        dead worker was sent is re-run, and parity still holds."""
        spec = chaos_spec(chaos=ChaosSpec(worker=1, epoch=2, after=0))
        requests = churn_script(PREFIXES, rounds=4)
        cluster, evidence = run_script(spec, requests)
        assert cluster.metrics.respawns
        assert reference_mismatches(spec, requests, evidence) == []

    def test_respawned_worker_serves_from_migrated_cache(self):
        """The reuse cache is the coordinator's, so a worker death
        cannot lose it: a settled sweep right after the respawn costs
        zero fresh verifications."""
        spec = chaos_spec()
        warm = churn_script(PREFIXES, rounds=4, resync_after=False)
        cluster = spec.build()
        try:
            for request in warm:
                cluster.request(request)
            assert cluster.metrics.respawns
            before = cluster.metrics.verified
            outcome = cluster.request(ChurnRequest(
                marks=tuple(("A", p) for p in PREFIXES),
            )).payload
            assert cluster.metrics.verified == before  # pure reuse
            assert all(e.reused for e in outcome.events)
        finally:
            cluster.stop()


class TestProcessWorkerDeath:
    """The same tolerance over real OS processes and pipe IPC."""

    def test_sigkill_mid_epoch_stays_byte_identical(self):
        spec = chaos_spec(transport="process", workers=2)
        requests = churn_script(PREFIXES, rounds=4)
        cluster, evidence = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert "pipe closed" in respawn["reason"]
        assert reference_mismatches(spec, requests, evidence) == []

    def test_hang_past_deadline_is_reaped(self, monkeypatch):
        """A worker that hangs without dying, on a cluster built with no
        liveness setting, is reaped once it has been silent past the
        pool's one deadline, then retried and replaced like a crash."""
        reap_a_hung_worker(monkeypatch, "cluster")

    def test_heartbeat_silence_is_reaped_without_a_deadline(
        self, monkeypatch
    ):
        """The service door has no deadline keyword at all: a hung worker
        behind it stops sending frames, and that silence alone reaps,
        retries and replaces it."""
        reap_a_hung_worker(monkeypatch, "service")

    def test_death_found_at_dispatch_is_survivable(self):
        """A worker whose process died *between* requests is discovered
        when the next batch hits its closed pipe: it is reaped, its
        batch re-runs on a survivor, a fresh worker takes its place —
        and a second, chaos-injected death in the next epoch spends
        that epoch's own budget.  Two workers lost, byte parity
        intact."""
        spec = chaos_spec(
            transport="process",
            chaos=ChaosSpec(worker=1, epoch=2, after=0),
        )
        requests = churn_script(PREFIXES, rounds=3)
        cluster = spec.build()
        try:
            # an out-of-band OS-level kill before the first request
            victim = cluster.executor.backend._workers[2].process
            victim.kill()
            victim.join()
            for request in requests:
                cluster.request(request)
            reasons = {
                r["worker"]: r["reason"]
                for r in cluster.metrics.respawns
            }
            assert set(reasons) == {1, 2}
            assert "dispatch" in reasons[2]
            assert reference_mismatches(
                spec, requests, cluster.evidence
            ) == []
        finally:
            cluster.stop()

    def test_two_workers_found_dead_together_fails_loud(self):
        """Losing more than one worker in one epoch is not
        survivable-by-retry territory — the cluster refuses to guess
        and raises."""
        spec = make_spec("minimum", transport="process")
        cluster = spec.build()
        try:
            for index in (1, 2):
                victim = cluster.executor.backend._workers[index].process
                victim.kill()
                victim.join()
            with pytest.raises(ClusterError, match=DOUBLE_DEATH):
                cluster.request(ChurnRequest())
        finally:
            cluster.stop()

    def test_two_deaths_in_one_epoch_fails_loud(self):
        """The in-epoch budget: a chaos kill plus a second worker dying
        mid-epoch is one death more than an epoch survives."""
        spec = chaos_spec(chaos=ChaosSpec(worker=1, epoch=1, after=0))
        cluster = spec.build()
        try:
            worker = cluster.executor.backend._workers[2]

            def dying_post(batch):
                worker.frames = []
                worker.died = "induced: second death in the epoch"

            worker.post = dying_post
            with pytest.raises(ClusterError, match=DOUBLE_DEATH):
                cluster.request(ChurnRequest())
        finally:
            cluster.stop()


# -- chaos spec validation ----------------------------------------------------


class TestChaosSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ChaosSpec(worker=-1, epoch=1)
        with pytest.raises(ValueError):
            ChaosSpec(worker=0, epoch=0)
        with pytest.raises(ValueError):
            ChaosSpec(worker=0, epoch=1, after=-1)
        with pytest.raises(ValueError):
            ChaosSpec(worker=0, epoch=1, mode="explode")

    def test_hang_requires_process_transport(self):
        with pytest.raises(ValueError):
            make_spec(
                "minimum",
                transport="inline",
                chaos=ChaosSpec(worker=0, epoch=1, mode="hang"),
            )

    def test_rejects_a_worker_the_cluster_does_not_have(self):
        """A chaos spec naming a missing worker would never fire."""
        with pytest.raises(ValueError, match="worker 5.* only 2 workers"):
            make_spec(
                "minimum", workers=2, chaos=ChaosSpec(worker=5, epoch=1)
            )


# -- epoch coalescing ---------------------------------------------------------


class TestCoalescing:
    def test_queued_churns_share_one_epoch_sequence(self):
        """Adjacent queued churn requests ride one epoch sequence; the
        reference driven with the same ``coalesce`` factor stays
        byte-identical, and every ticket shares the group outcome."""
        spec = make_spec("minimum", coalesce_max=4)
        # initial + 6 churn rounds + resync sweep = 8 requests
        requests = churn_script(PREFIXES, rounds=6)
        assert len(requests) == 8
        cluster = spec.build()
        try:
            tickets = [cluster.submit(r) for r in requests]
            cluster.pump()
            outcomes = [t.result().payload for t in tickets]
            groups = {id(o): o for o in outcomes}
            assert len(groups) == 2  # 8 tickets / coalesce_max 4
            assert all(o.coalesced == 4 for o in groups.values())
            assert cluster.metrics.coalesced_requests == len(requests)
            assert reference_mismatches(
                spec, requests, cluster.evidence, coalesce=4
            ) == []
        finally:
            cluster.stop()

    def test_single_requests_do_not_coalesce(self):
        spec = make_spec("minimum", coalesce_max=4)
        requests = churn_script(PREFIXES, rounds=3)
        cluster, _ = run_script(spec, requests)  # one at a time
        assert cluster.metrics.coalesced_requests == 0

    def test_drive_monitor_validates_coalesce(self):
        spec = make_spec("minimum")
        with pytest.raises(ValueError):
            drive_monitor(spec.build_monitor(), [], coalesce=0)


# -- the unified EpochOutcome shape -------------------------------------------


class TestEpochOutcomeParity:
    """The unified shape reads exactly like the reports it wraps."""

    def test_monitor_outcome_forwards_the_single_report(self):
        spec = make_spec("minimum")
        monitor = spec.build_monitor()
        outcome = monitor.run_epoch()
        (report,) = outcome.reports
        assert outcome.epoch == report.epoch
        assert outcome.events == report.events
        assert outcome.verified == report.verified
        assert outcome.reused == report.reused
        assert outcome.signatures == report.signatures
        assert outcome.verifications == report.verifications
        assert outcome.violations() == report.violations()
        assert outcome.violation_free() == report.violation_free()

    def test_cluster_outcome_matches_legacy_integers(self):
        spec = make_spec("minimum")
        requests = churn_script(PREFIXES, rounds=3, violation_every=2)
        cluster = spec.build()
        try:
            for request in requests:
                outcome = cluster.request(request).payload
                assert len(outcome.probe_events) == len(request.probes)
                # per-worker execution stats, whenever a round ran
                assert bool(outcome.slices) == bool(outcome.verified)
        finally:
            cluster.stop()

    def test_multi_report_outcome_refuses_the_single_shape(self):
        from repro.audit.events import EpochOutcome, EpochReport

        outcome = EpochOutcome(
            reports=[EpochReport(epoch=1), EpochReport(epoch=2)]
        )
        assert outcome.epochs == (1, 2)
        assert outcome.epoch == 1


# -- generated faults: a worker kill and a coordinator crash ------------------


class _Crash(BaseException):
    """A coordinator death with the record already durably written
    (``BaseException`` so no service code can swallow it)."""


def _drive(spec, requests, *, crash_at=None):
    """Serve what a recovery left of ``requests``.  With ``crash_at``,
    die right after the ``crash_at``-th step, counting the genesis as
    step 1 and then every journal record and every recorded event (so a
    crash lands mid-epoch as well as at a record); returns ``(cluster,
    requests committed to the journal when it died)`` — the count is
    ``None`` when the script finished first."""
    cluster = spec.build()
    original = cluster.journal.append
    committed = [cluster.recovered_requests]
    steps = itertools.count(cluster.journal.seq + 1)

    def step():
        if crash_at is not None and next(steps) >= crash_at:
            raise _Crash()

    def append(rtype, data):
        seq = original(rtype, data)
        if rtype == "commit":
            committed[0] += data["requests"]
        step()
        return seq

    cluster.journal.append = append
    cluster.evidence.subscribe(lambda event: step())
    try:
        for request in requests[cluster.recovered_requests:]:
            cluster.request(request)
    except _Crash:
        return cluster, committed[0]
    finally:
        cluster.stop()
    return cluster, None


FAULTS = dict(
    worker=st.integers(min_value=0, max_value=2),
    epoch=st.integers(min_value=1, max_value=4),
    after=st.integers(min_value=0, max_value=1),
    # the genesis is step 1; the script takes 30 steps (13 journal
    # records, 17 recorded events), so a few draws finish uncrashed
    crash_at=st.integers(min_value=2, max_value=36),
)


class TestGeneratedFaults:
    """One oracle, generated schedules: any worker kill × any
    coordinator crash point recovers to a byte-identical trail with
    exactly the journaled commits replayed."""

    @pytest.fixture(scope="class")
    def script(self):
        """The requests, and the reference trail they must produce."""
        requests = churn_script(PREFIXES, rounds=4, violation_every=3)
        reference = make_spec("minimum").build_monitor()
        drive_monitor(reference, requests)
        return requests, reference.evidence

    def check(self, script, worker, epoch, after, crash_at):
        requests, reference = script
        base = tempfile.mkdtemp(prefix="faults-")
        spec = make_spec(
            "minimum",
            journal=base,
            chaos=ChaosSpec(worker=worker, epoch=epoch, after=after),
        )
        try:
            _, committed = _drive(spec, requests, crash_at=crash_at)
            recovered, _ = _drive(spec, requests)
            if committed is not None:
                assert recovered.recovered_requests == committed
            assert trail_mismatches(recovered.evidence, reference) == []
        finally:
            shutil.rmtree(base)

    @settings(max_examples=15, deadline=None)
    @given(**FAULTS)
    def test_kill_and_crash_recover_byte_identical(
        self, script, worker, epoch, after, crash_at
    ):
        self.check(script, worker, epoch, after, crash_at)

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(**FAULTS)
    def test_kill_and_crash_recover_byte_identical_at_scale(
        self, script, worker, epoch, after, crash_at
    ):
        self.check(script, worker, epoch, after, crash_at)
