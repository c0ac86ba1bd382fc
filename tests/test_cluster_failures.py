"""Failure tolerance: chaos-injected worker deaths, buddy backfill,
respawn, epoch coalescing, and the :class:`~repro.cluster.fold.SliceFold`
reorder buffer.

The invariant under test everywhere: a worker lost mid-slice — killed
between streamed events, SIGKILLed at the OS level, or hung past the
epoch deadline — leaves the folded evidence trail **byte-identical** to
an unsharded reference monitor, because its unfinished positions are
backfilled by a buddy and it is respawned through the grow-spawn
snapshot path before the next probes run.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ChurnRequest, ClusterSpec
from repro.cluster.cluster import ClusterError
from repro.cluster.fold import FoldError, SliceFold
from repro.cluster.spec import ChaosSpec
from repro.cluster.workload import churn_script, drive_monitor, trail_mismatches
from repro.pvr.scenarios import serve_network

from test_cluster import (
    PREFIX_COUNT,
    VARIANT_POLICIES,
    make_spec,
    reference_trail,
    run_script,
)


def chaos_spec(variant="minimum", **overrides):
    """A 3-worker spec whose worker 1 dies mid-slice in epoch 2, after
    streaming exactly one owned event."""
    options = dict(
        chaos=ChaosSpec(worker=1, epoch=2, after=1),
    )
    options.update(overrides)
    return make_spec(variant, **options)


# -- chaos kills across the protocol variants ---------------------------------


class TestChaosKillParity:
    """The acceptance criterion survives a mid-slice worker death."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_kill_mid_slice_stays_byte_identical(self, variant):
        spec = chaos_spec(variant)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=5, violation_every=3)
        cluster, evidence = run_script(spec, requests)
        assert cluster.metrics.respawns, "the chaos kill never fired"
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []
        assert cluster.metrics.parity_failed == 0

    def test_backfill_and_respawn_are_recorded(self):
        spec = chaos_spec()
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=5, violation_every=3)
        cluster, _ = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert respawn["worker"] == 1
        assert "chaos kill" in respawn["reason"]
        # a buddy re-executed the dead worker's unfinished positions
        assert sum(cluster.metrics.backfilled.values()) >= 1
        assert 1 not in cluster.metrics.backfilled  # never its own buddy
        # the respawned worker rejoined and kept executing slices
        assert cluster.workers == 3
        assert not cluster._dead

    def test_kill_before_first_event_backfills_whole_slice(self):
        """``after=0`` dies at plan time: every owned position of the
        dead worker is backfilled, and parity still holds."""
        spec = chaos_spec(chaos=ChaosSpec(worker=1, epoch=2, after=0))
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        cluster, evidence = run_script(spec, requests)
        assert cluster.metrics.respawns
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []

    def test_respawned_worker_serves_from_migrated_cache(self):
        """The replacement adopts the donor snapshot plus the dead
        worker's mirror cache entries: a settled sweep right after the
        respawn costs zero fresh verifications."""
        spec = chaos_spec()
        _, prefixes = serve_network(PREFIX_COUNT)
        warm = churn_script(prefixes, rounds=4, resync_after=False)
        cluster = spec.build()
        try:
            for request in warm:
                cluster.request(request)
            assert cluster.metrics.respawns
            before = cluster.metrics.verified
            outcome = cluster.request(ChurnRequest(
                marks=tuple(("A", p) for p in prefixes),
            )).payload
            assert cluster.metrics.verified == before  # pure reuse
            assert all(e.reused for e in outcome.events)
        finally:
            cluster.stop()


class TestProcessWorkerDeath:
    """The same tolerance over real OS processes and pipe IPC."""

    def test_sigkill_mid_epoch_stays_byte_identical(self):
        spec = chaos_spec(
            transport="process", workers=2, stream_batch=1
        )
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        cluster, evidence = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert "pipe closed" in respawn["reason"]
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []

    def test_hang_past_deadline_is_reaped(self):
        """A worker that goes silent (hangs) without dying is declared
        dead when the epoch deadline passes, then backfilled and
        respawned like a crash."""
        spec = make_spec(
            "minimum",
            transport="process",
            epoch_deadline=3.0,
            chaos=ChaosSpec(
                worker=2, epoch=3, mode="hang", hang_seconds=60.0
            ),
        )
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        cluster, evidence = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert respawn["worker"] == 2
        assert "deadline" in respawn["reason"]
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []

    def test_heartbeat_silence_is_reaped_without_a_deadline(self):
        """No epoch deadline at all: a hung worker stops heart-beating,
        and five silent intervals are enough to reap, backfill and
        respawn it."""
        spec = make_spec(
            "minimum",
            transport="process",
            heartbeat_interval=0.2,
            chaos=ChaosSpec(
                worker=2, epoch=3, mode="hang", hang_seconds=60.0
            ),
        )
        assert spec.epoch_deadline is None
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        cluster, evidence = run_script(spec, requests)
        [respawn] = cluster.metrics.respawns
        assert respawn["worker"] == 2
        assert "heartbeat silent" in respawn["reason"]
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []

    def test_death_found_at_churn_broadcast_is_survivable(self):
        """A worker whose process died *between* requests is discovered
        when the next churn broadcast hits its closed pipe: it is
        reaped, its positions backfill, it respawns from a post-churn
        donor snapshot — and a second, chaos-injected death inside the
        epoch itself rides the separate in-epoch budget.  Two workers
        lost, byte parity intact."""
        spec = chaos_spec(
            transport="process",
            chaos=ChaosSpec(worker=1, epoch=1, after=0),
        )
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=3)
        cluster = spec.build()
        try:
            # an out-of-band OS-level kill before the first request
            cluster._workers[2].process.kill()
            cluster._workers[2].process.join()
            for request in requests:
                cluster.request(request)
            reasons = {
                r["worker"]: r["reason"]
                for r in cluster.metrics.respawns
            }
            assert set(reasons) == {1, 2}
            assert "churn broadcast" in reasons[2]
            reference = reference_trail(spec, requests)
            assert trail_mismatches(cluster.evidence, reference) == []
        finally:
            cluster.stop()

    def test_two_workers_found_dead_together_fails_loud(self):
        """Losing more workers than ``max_failures_per_epoch`` in one
        detection window is not survivable-by-backfill territory — the
        cluster refuses to guess and raises."""
        spec = make_spec("minimum", transport="process")
        cluster = spec.build()
        try:
            for index in (1, 2):
                cluster._workers[index].process.kill()
                cluster._workers[index].process.join()
            with pytest.raises(
                ClusterError, match="max_failures_per_epoch"
            ):
                cluster.request(ChurnRequest())
        finally:
            cluster.stop()

    def test_two_deaths_in_one_epoch_fails_loud(self):
        """The in-epoch budget: a chaos kill plus a second worker dying
        mid-epoch exceeds ``max_failures_per_epoch=1``."""
        spec = chaos_spec(chaos=ChaosSpec(worker=1, epoch=1, after=0))
        cluster = spec.build()
        try:
            worker = cluster._workers[2]
            original_post = worker.post

            def dying_post(command):
                if command[0] == "epoch":
                    del worker.state.stream[:]
                    worker._reply = (
                        "died", "induced: second death in the epoch"
                    )
                else:
                    original_post(command)

            worker.post = dying_post
            with pytest.raises(
                ClusterError, match="max_failures_per_epoch"
            ):
                cluster.request(ChurnRequest())
        finally:
            cluster.stop()

    def test_failure_budget_zero_makes_any_death_fatal(self):
        spec = chaos_spec(max_failures_per_epoch=0)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=3)
        cluster = spec.build()
        try:
            with pytest.raises(
                ClusterError, match="max_failures_per_epoch"
            ):
                for request in requests:
                    cluster.request(request)
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
                epoch_deadline=1.0,
                chaos=ChaosSpec(worker=0, epoch=1, mode="hang"),
            )


# -- epoch coalescing ---------------------------------------------------------


class TestCoalescing:
    def test_queued_churns_share_one_epoch_sequence(self):
        """Adjacent queued churn requests ride one epoch sequence; the
        reference driven with the same ``coalesce`` factor stays
        byte-identical, and every ticket shares the group outcome."""
        spec = make_spec("minimum", coalesce_max=4)
        _, prefixes = serve_network(PREFIX_COUNT)
        # initial + 6 churn rounds + resync sweep = 8 requests
        requests = churn_script(prefixes, rounds=6)
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
            reference = spec.build_monitor()
            drive_monitor(reference, requests, coalesce=4)
            assert trail_mismatches(
                cluster.evidence, reference.evidence
            ) == []
        finally:
            cluster.stop()

    def test_single_requests_do_not_coalesce(self):
        spec = make_spec("minimum", coalesce_max=4)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=3)
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
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=3, violation_every=2)
        cluster = spec.build()
        try:
            for request in requests:
                outcome = cluster.request(request).payload
                assert len(outcome.probe_events) == len(request.probes)
                assert outcome.slices  # per-worker execution stats
        finally:
            cluster.stop()

    def test_multi_report_outcome_refuses_the_single_shape(self):
        from repro.audit.events import EpochOutcome, EpochReport

        outcome = EpochOutcome(
            reports=[EpochReport(epoch=1), EpochReport(epoch=2)]
        )
        assert outcome.epochs == (1, 2)
        assert outcome.epoch == 1


# -- the SliceFold reorder buffer ---------------------------------------------


class TestSliceFold:
    @given(
        st.integers(min_value=1, max_value=32).flatmap(
            lambda n: st.permutations(list(range(n)))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_arrival_interleaving_releases_plan_order(self, order):
        """The tentpole's core determinism property: whatever order
        positions complete in — including backfills arriving after
        their successors — the released sequence is the plan order."""
        fold = SliceFold(len(order))
        released = []
        for position in order:
            released.extend(fold.add(position, ("event", position)))
        assert released == [("event", p) for p in range(len(order))]
        assert fold.complete()
        assert fold.missing() == []

    def test_releases_only_the_contiguous_prefix(self):
        fold = SliceFold(4)
        assert fold.add(2, "c") == []
        assert fold.add(0, "a") == ["a"]
        assert fold.missing() == [1, 3]
        assert not fold.complete()
        assert fold.add(1, "b") == ["b", "c"]  # fills the hole
        assert fold.add(3, "d") == ["d"]
        assert fold.complete()

    def test_duplicate_claim_is_a_fold_error(self):
        fold = SliceFold(3)
        fold.add(1, "x")
        with pytest.raises(FoldError, match="claimed twice"):
            fold.add(1, "y")

    def test_out_of_range_position_is_a_fold_error(self):
        fold = SliceFold(2)
        with pytest.raises(FoldError):
            fold.add(2, "x")
        with pytest.raises(FoldError):
            fold.add(-1, "x")

    def test_plan_size_cannot_change(self):
        fold = SliceFold()
        fold.set_entries(5)
        fold.set_entries(5)  # idempotent
        with pytest.raises(FoldError, match="plan size changed"):
            fold.set_entries(6)

    def test_missing_requires_a_plan_header(self):
        with pytest.raises(FoldError, match="plan size unknown"):
            SliceFold().missing()
