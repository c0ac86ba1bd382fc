"""The serving layer: the round pool, the async service, fold parity,
load.

The load-bearing suite here is the acceptance criterion for the
``repro.serve`` subsystem: a sharded
:class:`~repro.serve.service.VerificationService` produces an evidence
trail **byte-identical** to an unsharded
:class:`~repro.audit.monitor.Monitor` driven over the same churn — same
events, same sequence numbers, same rounds, same verdict/evidence
bytes, same crypto counts — for all four protocol variants.
"""

import asyncio
import os
import signal
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import Monitor, choosers
from repro.audit.monitor import MergeError, fold_plan
from repro.audit.store import EvidenceStore
from repro.bgp.prefix import Prefix
from repro.cluster import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    ClusterMetrics,
    LatencySeries,
    PolicySpec,
    QueryRequest,
    ServiceStopped,
)
from repro.crypto.keystore import KeyStore
from repro.promises.spec import NoLongerThanOthers, ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import (
    bounce_session,
    flap_session,
    restore_session,
    serve_network,
    serve_prefixes,
)
from repro.serve import (
    LoadProfile,
    Op,
    ServeWorkload,
    VerificationService,
    ZipfSampler,
    build_schedule,
    run_open_loop,
)
from repro.cluster.metrics import nearest_rank
from repro.cluster.pool import ShardExecutor
from repro.cluster.requests import answer_query
from repro.cluster import workload
from repro.cluster.workload import (
    churn_script,
    drive_monitor,
    reference_mismatches,
    serve_spec,
    trail_mismatches,
)
from repro.obs.trace import TraceContext
from repro.util.rng import DeterministicRandom
from serve_driver import run_workload, service_for
from test_cluster import VARIANT_POLICIES

SEED = 2011


def make_service(net, **options):
    options.setdefault("shards", 3)
    options.setdefault("transport", "inline")
    options.setdefault("rng_seed", SEED)
    return VerificationService(net, **options)


def run_async(coro):
    return asyncio.run(coro)


# -- the acceptance criterion: sharded == unsharded, all four variants ---------


def variant_spec(variant, prefixes=3, **fields):
    fields.setdefault("rng_seed", SEED)
    return serve_spec(
        prefixes, policies=(VARIANT_POLICIES[variant],), **fields
    )


def settle_script(prefixes=3):
    """The converged state, a flap, its restore, then a full resync
    sweep over settled state: pure cache reuse."""
    return [
        ChurnRequest(),
        ChurnRequest(steps=((flap_session, ("O", "N2")),)),
        ChurnRequest(steps=((restore_session, ("O", "N2")),)),
        ChurnRequest(marks=tuple(("A", p) for p in serve_prefixes(prefixes))),
    ]


def served(spec, requests, **options):
    """The stopped service that served ``requests`` one at a time."""
    async def go():
        service = service_for(spec, **options)
        await service.start()
        for request in requests:
            await service.request(request)
        await service.stop()
        assert service.metrics.parity_failed == 0
        return service

    return run_async(go())


def sharded_trail(variant, *, shards=3, transport="inline"):
    return served(
        variant_spec(variant, workers=shards, transport=transport,
                     parity_sample=1),
        settle_script(),
    )


def assert_byte_identical(service, spec, requests):
    assert len(service.evidence) > 0
    assert reference_mismatches(spec, requests, service.evidence) == []


def planned_epoch(prefixes=7):
    """A monitor with one planned (unexecuted) epoch of fresh rounds."""
    monitor = variant_spec("minimum", prefixes).build_monitor()
    return monitor, monitor.plan_epoch()


def pool_run(executor, plan):
    results, _slices, reaped = executor.execute(
        plan.fresh_entries(), {}, epoch=plan.epoch,
        tracer=TraceContext("t", enabled=False), on_reap=lambda reason: None,
    )
    return results, reaped


class TestShardPool:
    """The executor's worker pool: inline or one process per shard."""

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_map_preserves_order_and_close_is_idempotent(self, transport):
        monitor, plan = planned_epoch()
        executor = ShardExecutor(
            2, monitor.keystore, SEED, transport=transport
        )
        pool = executor.backend
        try:
            results, reaped = pool_run(executor, plan)
            assert sorted(results) == [p for p, _ in plan.fresh_entries()]
            assert not reaped
            pool.close()
            # a closed pool restarts on demand
            again, _ = pool_run(executor, plan)
            assert [again[p][0].verdicts for p in sorted(again)] == [
                results[p][0].verdicts for p in sorted(results)
            ]
        finally:
            pool.close()
            pool.close()

    @pytest.mark.parametrize(
        "spec", ["thread", "thread:2", "quantum", "process:lots",
                 "process:0", "serial", "process:2"],
    )
    def test_bad_specs_rejected(self, spec):
        """There is one transport vocabulary and no string grammar:
        anything but ``"process"`` / ``"inline"`` — the retired
        ``"serial"`` / ``"process:N"`` spellings included — is refused
        loudly, never half-parsed."""
        with pytest.raises(ValueError, match="unknown transport"):
            ShardExecutor(2, KeyStore(seed=SEED), SEED, transport=spec)

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError, match="worker count"):
            ShardExecutor(0, KeyStore(seed=SEED), SEED, transport="process")

    def test_a_killed_worker_costs_a_retry_not_the_epoch(self):
        monitor, plan = planned_epoch()
        executor = ShardExecutor(
            2, monitor.keystore, SEED, transport="process"
        )
        try:
            executor.warm()
            victim = executor.backend._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            results, reaped = pool_run(executor, plan)
            # every position came back: the dead worker's share re-ran
            # on the survivor, and a fresh worker took its place
            assert sorted(results) == [p for p, _ in plan.fresh_entries()]
            assert [worker for worker, _ in reaped] == [1]
            assert executor.backend._workers[1].process.is_alive()
            assert pool_run(executor, plan)[1] == []
        finally:
            executor.backend.close()

    def test_workers_exit_when_the_coordinator_goes_away(self):
        """No stop message, just the coordinator's pipe ends closing
        (what its death looks like): every worker sees EOF and exits —
        none is kept alive by a sibling's inherited copy."""
        executor = ShardExecutor(
            3, KeyStore(seed=SEED), SEED, transport="process"
        )
        executor.warm()
        workers = executor.backend._workers
        try:
            for worker in workers:
                worker.conn.close()
            for worker in workers:
                worker.process.join(timeout=10)
            assert not any(w.process.is_alive() for w in workers)
        finally:
            for worker in workers:
                worker.process.kill()


class TestShardedParity:
    """The acceptance suite: evidence/verdict byte-parity per variant."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_sharded_service_matches_unsharded_monitor(self, variant):
        assert_byte_identical(
            sharded_trail(variant), variant_spec(variant), settle_script()
        )

    @pytest.mark.parametrize("shards", [1, 2, 5])
    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_parity_holds_at_any_shard_count(self, variant, shards):
        """Who runs a planned round cannot matter — including one
        inline shard, and more shards (5) than an epoch has fresh
        entries (3)."""
        assert_byte_identical(
            sharded_trail(variant, shards=shards),
            variant_spec(variant), settle_script(),
        )

    @pytest.mark.parametrize(
        "prefixes,shards", [(7, 1), (7, 2), (7, 3), (7, 5), (3, 5)]
    )
    def test_fresh_entries_are_dealt_evenly(self, prefixes, shards):
        monitor, plan = planned_epoch(prefixes)
        fresh = plan.fresh_entries()
        assert len(fresh) == prefixes
        batches = ShardExecutor(
            shards, monitor.keystore, SEED, transport="inline"
        ).plan_tasks(fresh)
        assert len(batches) == shards
        # every fresh position exactly once, contiguous in plan order
        assert [t.position for batch in batches for t in batch] == [
            position for position, _ in fresh
        ]
        sizes = [len(batch) for batch in batches]
        assert max(sizes) - min(sizes) <= 1

    def test_parity_holds_on_process_workers(self):
        """The real process pool: results cross a pickle boundary."""
        assert_byte_identical(
            sharded_trail("minimum", shards=2, transport="process"),
            variant_spec("minimum"), settle_script(),
        )

    def test_settled_churn_is_served_from_cache(self):
        service = sharded_trail("minimum")
        reused = [e for e in service.evidence.events() if e.reused]
        assert reused  # the final settled epoch reused its tuples

    def test_fresh_rounds_report_nonzero_wire_cost(self):
        service = sharded_trail("minimum")
        fresh = [e for e in service.evidence.events() if not e.reused]
        assert fresh
        assert all(e.stats.messages > 0 for e in fresh)
        assert all(e.stats.bytes > 0 for e in fresh)


class TestNamedChooserSharding:
    """A policy's chooser is a registry name, so every fresh round of
    it runs on the pool (the worker resolves the name itself): there
    is no second executor on the coordinator's wire path."""

    def test_named_chooser_entries_run_on_shards_with_parity(self):
        spec = serve_spec(
            3,
            policies=(PolicySpec("A", NoLongerThanOthers(), dict(
                name="A/p4", max_length=8, chooser="discriminating:B",
            )),),
            workers=3, transport="inline", rng_seed=SEED, parity_sample=1,
        )
        requests = settle_script()[:3]
        service = served(spec, requests)
        # every fresh round went through the pool
        fresh = [e for e in service.evidence.events() if not e.reused]
        assert fresh
        assert sum(service.metrics.worker_events.values()) == len(fresh)
        names = {r["name"] for r in service.cluster.tracer.records}
        assert "merge" in names and "local" not in names
        assert_byte_identical(service, spec, requests)


# -- merge safety --------------------------------------------------------------


class TestMerge:
    def test_missing_outcome_raises(self):
        net, _ = serve_network(2)
        monitor = Monitor(
            KeyStore(seed=SEED, key_bits=512), rng_seed=SEED
        ).attach(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       max_length=8)
        plan = monitor.plan_epoch()
        assert plan.fresh_entries()
        with pytest.raises(MergeError, match="no outcome"):
            fold_plan(monitor, plan, outcomes={})


# -- the evidence-store bound (satellite) --------------------------------------


class TestEvidenceStoreBound:
    def run_probe_service(self, *, max_events):
        async def go():
            net, prefixes = serve_network(4)
            service = make_service(net, shards=2, max_events=max_events)
            service.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            await service.start()
            await service.request(ChurnRequest())
            await service.request(ChurnRequest(probes=(
                AuditProbe("A", prefixes[0], "B",
                           prover=LongerRouteProver),
            )))
            # sustained churn: repeated re-audits overflow the bound
            for _ in range(3):
                await service.request(ChurnRequest(
                    steps=(flap_session("O", "N2"),),
                ))
                await service.request(ChurnRequest(
                    steps=(restore_session("O", "N2"),),
                ))
            await service.stop()
            return service

        return run_async(go())

    def test_oldest_clean_evicted_violations_pinned(self):
        service = self.run_probe_service(max_events=6)
        store = service.evidence
        assert len(store) <= 6
        assert store.evicted > 0
        # the violation survived every eviction wave
        assert len(store.violations()) == 1
        # and the survivors are the *newest* clean events
        clean = [e for e in store.events() if not e.violation_found()]
        seqs = [e.seq for e in clean]
        assert seqs == sorted(seqs)
        assert seqs[0] > 1  # the oldest clean verdicts are gone

    def test_unbounded_store_never_evicts(self):
        service = self.run_probe_service(max_events=None)
        assert service.evidence.evicted == 0

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            EvidenceStore(max_events=0)

    def test_summary_reports_evictions(self):
        service = self.run_probe_service(max_events=6)
        summary = service.evidence.summary()
        assert summary["evicted"] == service.evidence.evicted > 0


class TestCommittedView:
    """The store half of reads-at-the-door: a copy of the trail cut at
    the committed watermark, safe beside the recording thread."""

    def test_view_is_cut_at_the_watermark(self):
        store = EvidenceStore()
        for seq in range(1, 4):
            store.record(SimpleNamespace(seq=store.next_seq()))
        assert store.committed_view().events() == ()
        store.commit()
        store.record(SimpleNamespace(seq=store.next_seq()))
        assert [e.seq for e in store.committed_view().events()] == [1, 2, 3]
        assert len(store) == 4

    def test_reader_beside_a_recording_thread(self):
        """One thread records 100k events committing every 1,000, the
        other reads the committed view in a loop: no exception (an
        unlocked scan raises ``deque mutated during iteration``), and
        every view is exactly seqs 1..watermark."""
        store = EvidenceStore()
        total, every = 100_000, 1_000
        failures = []

        def write():
            try:
                for _ in range(total // every):
                    for _ in range(every):
                        store.record(SimpleNamespace(seq=store.next_seq()))
                    store.commit()
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writer.start()
            views = 0
            while writer.is_alive():
                events = store.committed_view().events()
                views += 1
                assert len(events) % every == 0
                assert not events or (
                    events[0].seq == 1 and events[-1].seq == len(events)
                )
            writer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive() and not failures
        assert views > 0
        final = store.committed_view().events()
        assert [e.seq for e in final] == list(range(1, total + 1))


# -- metrics -------------------------------------------------------------------


class TestNearestRank:
    def test_empty_is_none(self):
        assert nearest_rank([], 50) is None

    def test_single_sample(self):
        assert nearest_rank([7.0], 1) == 7.0
        assert nearest_rank([7.0], 100) == 7.0

    def test_known_ranks(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(ordered, 25) == 1.0
        assert nearest_rank(ordered, 50) == 2.0
        assert nearest_rank(ordered, 75) == 3.0
        assert nearest_rank(ordered, 99) == 4.0

    @pytest.mark.parametrize("p", [0, -1, 101])
    def test_percentile_domain(self, p):
        with pytest.raises(ValueError):
            nearest_rank([1.0], p)

    def test_all_percentiles_route_through_one_implementation(
        self, monkeypatch
    ):
        """No duplicated nearest-rank code: the ledger's series calls
        the one function."""
        from repro.cluster import metrics

        monkeypatch.setattr(metrics, "nearest_rank", lambda ordered, p: -1.0)
        series = LatencySeries()
        series.add(0.5)
        assert series.percentile(50) == -1.0
        assert series.summary()["p99_s"] == -1.0


class TestLatencySeries:
    def test_nearest_rank_percentiles_are_exact(self):
        series = LatencySeries()
        for value in [0.05, 0.01, 0.03, 0.02, 0.04]:
            series.add(value)
        assert series.percentile(50) == 0.03
        assert series.percentile(90) == 0.05
        assert series.percentile(99) == 0.05
        assert series.percentile(20) == 0.01
        assert series.max() == 0.05
        assert series.mean() == pytest.approx(0.03)

    def test_empty_series(self):
        series = LatencySeries()
        assert series.percentile(50) is None
        assert series.mean() is None
        assert len(series) == 0

    def test_rejects_bad_input(self):
        series = LatencySeries()
        with pytest.raises(ValueError):
            series.add(-0.1)
        with pytest.raises(ValueError):
            series.percentile(0)

    def test_snapshot_schema(self):
        metrics = ClusterMetrics()
        metrics.admit("churn")
        metrics.complete("churn", latency=0.1, queue_delay=0.02,
                         service=0.08)
        snapshot = metrics.snapshot()
        assert snapshot["schema"] == "repro.cluster/metrics"
        assert snapshot["schema_version"] == 8
        churn = snapshot["requests"]["churn"]
        assert churn["admitted"] == 1
        assert churn["latency"]["p99_s"] == 0.1
        # the three refusal keys the frozen benchmark sums: two live,
        # ``shed`` a constant (nothing sheds once admitted)
        assert (churn["rejected"], churn["dropped"], churn["shed"]) == (0, 0, 0)
        for section in ("epochs", "placement", "parity", "probes"):
            assert section in snapshot
        assert "admission" not in snapshot and "control" not in snapshot
        assert set(snapshot["placement"]) == {"spec", "load"}


# -- the load generator --------------------------------------------------------


class TestLoadgen:
    def workload(self, prefixes):
        return ServeWorkload(
            prefixes=prefixes,
            flappable=(("O", "N2"),),
            violator=("A", "B"),
        )

    def test_schedule_is_deterministic(self):
        prefixes = tuple(
            Prefix.parse(f"10.{i}.0.0/16") for i in range(4)
        )
        profile = LoadProfile(requests=40, rate=100.0,
                              violation_every=5, seed=3)
        first = build_schedule(profile, self.workload(prefixes))
        second = build_schedule(profile, self.workload(prefixes))
        assert [op.at for op in first] == [op.at for op in second]
        assert [op.kind for op in first] == [op.kind for op in second]
        assert [
            type(op.request).__name__ for op in first
        ] == [type(op.request).__name__ for op in second]

    def test_violation_ops_appear_at_cadence(self):
        prefixes = tuple(
            Prefix.parse(f"10.{i}.0.0/16") for i in range(4)
        )
        profile = LoadProfile(requests=60, violation_every=4, seed=3)
        ops = build_schedule(profile, self.workload(prefixes))
        probes = [
            op for op in ops
            if op.kind == "churn" and op.request.probes
        ]
        churn_ops = [op for op in ops if op.kind == "churn"]
        assert len(probes) == len(churn_ops) // 4

    def test_zipf_head_is_hot(self):
        rng = DeterministicRandom(5)
        sampler = ZipfSampler(8, s=1.2)
        counts = [0] * 8
        for _ in range(2000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[-1]

    def test_poisson_arrivals_are_increasing(self):
        prefixes = (Prefix.parse("10.0.0.0/16"),)
        profile = LoadProfile(requests=20, rate=50.0, seed=9)
        ops = build_schedule(profile, self.workload(prefixes))
        ats = [op.at for op in ops]
        assert ats == sorted(ats)
        assert ats[-1] > 0

    @pytest.mark.parametrize("rate", [0, 0.0, -2.5])
    def test_a_non_positive_rate_is_refused(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            LoadProfile(rate=rate)

    @pytest.mark.parametrize("argv, message", [
        (["--rate", "0"], "--rate must be positive"),
        (["--duration", "5"], "--duration requires --rate"),
    ])
    def test_cli_refuses_a_rate_it_cannot_schedule(
        self, argv, message, capsys
    ):
        """``--rate 0`` used to divide by zero inside the schedule
        builder, and ``--duration`` without ``--rate`` was dropped in
        silence (100 requests ran): both are usage errors."""
        from repro.serve.__main__ import main

        assert main(argv) == 2
        assert message in capsys.readouterr().err


# -- the service ---------------------------------------------------------------


class TestService:
    def test_queries_and_adjudication(self):
        async def go():
            net, prefixes = serve_network(3)
            service = make_service(net, shards=2)
            service.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            await service.start()
            await service.request(ChurnRequest())
            await service.request(ChurnRequest(probes=(
                AuditProbe("A", prefixes[0], "B",
                           prover=LongerRouteProver),
            )))
            summary = (await service.request(QueryRequest())).payload
            violations = (await service.request(
                QueryRequest(what="violations")
            )).payload
            events = (await service.request(QueryRequest(
                what="events", prefix=prefixes[0],
            ))).payload
            rulings = (await service.request(AdjudicateRequest())).payload
            await service.stop()
            return summary, violations, events, rulings

        summary, violations, events, rulings = run_async(go())
        assert summary["events"] == 4  # 3 epoch events + 1 probe
        assert len(violations) == 1
        assert all(e.prefix == Prefix.parse("10.0.0.0/16") for e in events)
        assert len(rulings) == 1
        assert next(iter(rulings.values())).guilty()

    def test_admission_queue_rejects_when_full(self):
        async def go():
            net, _ = serve_network(2)
            service = make_service(net, shards=1, queue_depth=2)
            service.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            await service.start()
            # the dispatcher is not yet draining (no await since start),
            # so the queue fills synchronously
            futures = [
                service.submit_nowait(ChurnRequest()) for _ in range(2)
            ]
            with pytest.raises(AdmissionError):
                service.submit_nowait(ChurnRequest())
            rejected = service.metrics.type_metrics("churn").rejected
            await service.drain()
            for future in futures:
                await future
            await service.stop()
            return rejected

        assert run_async(go()) == 1

    def test_churn_requests_coalesce_into_one_epoch(self):
        async def go():
            net, prefixes = serve_network(4)
            service = make_service(net, shards=2, batch_max=8)
            service.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            await service.start()
            marks = [
                ChurnRequest(marks=((("A"), prefix),))
                for prefix in prefixes
            ]
            futures = [service.submit_nowait(r) for r in marks]
            await service.drain()
            completions = [await f for f in futures]
            await service.stop()
            return service, completions

        service, completions = run_async(go())
        # all four churn requests share one coalesced epoch outcome
        assert service.metrics.epochs == 1
        assert service.metrics.coalesced_requests == 4
        assert len({id(c.payload) for c in completions}) == 1

    def test_errors_resolve_futures(self):
        async def go():
            net, _ = serve_network(2)
            service = make_service(net, shards=1)
            await service.start()
            with pytest.raises(ValueError, match="unknown query"):
                await service.request(QueryRequest(what="nope"))
            # the service still serves after a failed request
            summary = (await service.request(QueryRequest())).payload
            await service.stop()
            return summary

        assert run_async(go())["events"] == 0

    def test_stop_without_drain_settles_every_future(self):
        """``stop(drain=False)`` strands nobody: the group in flight
        is served, what is still queued fails with the named error,
        and the stopped service takes no more work."""
        async def go():
            net, _ = serve_network(2)
            service = make_service(net, shards=1)
            service.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            await service.start()
            churn = service.submit_nowait(ChurnRequest())
            await asyncio.sleep(0)  # the dispatcher takes the churn
            queued = service.submit_nowait(AdjudicateRequest())
            await asyncio.wait_for(service.stop(drain=False), timeout=30)
            assert churn.done() and queued.done()
            with pytest.raises(ServiceStopped):
                queued.result()
            with pytest.raises(RuntimeError):
                service.submit_nowait(QueryRequest())
            with pytest.raises(RuntimeError):
                await service.start()
            return churn.result().payload

        assert len(run_async(go()).events) == 2

    def test_losing_a_pool_worker_costs_a_retry_not_the_epoch(
        self, tmp_path, monkeypatch
    ):
        """A worker SIGKILLed mid-batch: its unfinished rounds re-run on
        the survivor, a fresh worker takes its place, and the churn
        request that lost it completes with every pair audited."""
        trigger = tmp_path / "kill-one-worker"
        parent = os.getpid()

        def die_once(_arg):
            # resolved inside whichever process runs the round: the
            # first *worker* to get here takes the trigger and dies
            if os.getpid() != parent:
                try:
                    trigger.unlink()
                except FileNotFoundError:
                    pass
                else:
                    signal.raise_signal(signal.SIGKILL)
            return choosers.get("honest")

        monkeypatch.setitem(choosers._FACTORIES, "die-once", die_once)

        async def go():
            net, prefix_list = serve_network(4)
            service = VerificationService(
                net, shards=2, transport="process", rng_seed=SEED,
            )
            service.policy("A", NoLongerThanOthers(), name="A/p4",
                           max_length=8, chooser="die-once:")
            await service.start()
            trigger.touch()
            outcome = (await service.request(ChurnRequest())).payload
            pending = service.monitor.pending()
            await service.stop()
            return service, prefix_list, outcome, pending

        service, prefix_list, outcome, pending = run_async(go())
        assert not trigger.exists()
        assert outcome.respawns == 1
        [respawn] = service.metrics.snapshot()["respawns"]
        assert "pipe closed" in respawn["reason"]
        assert not pending
        audited = {(e.asn, e.prefix) for e in outcome.events}
        assert audited == {("A", prefix) for prefix in prefix_list}
        assert all(not e.reused and e.ok() for e in outcome.events)


# -- one oracle, three hosts ---------------------------------------------------


class TestOneOracleThreeHosts:
    """The same script through both cluster transports and the asyncio
    service: one trail, one epoch count, one load split — the pipeline
    is written once."""

    WORKERS = 2
    COALESCE = 4

    @staticmethod
    def script():
        """12 requests submitted as one burst (-> three coalesced
        groups of four): flaps, restores, re-originations, bounces, two
        Byzantine probes and the closing resync sweep."""
        requests = churn_script(
            serve_prefixes(4), rounds=10, violation_every=4
        )
        assert len(requests) == 12
        return requests

    def spec(self, transport):
        return serve_spec(
            4,
            workers=self.WORKERS,
            transport=transport,
            rng_seed=SEED,
            coalesce_max=self.COALESCE,
        )

    def drive_cluster(self, transport):
        with self.spec(transport).build() as cluster:
            for request in self.script():
                cluster.submit(request)
            cluster.drain()
            return cluster.evidence, cluster.snapshot()

    def drive_service(self):
        async def go():
            service = service_for(self.spec("process"))
            await service.start()
            futures = [service.submit_nowait(r) for r in self.script()]
            await service.drain()
            await asyncio.gather(*futures)
            await service.stop()
            return service.evidence, service.metrics.snapshot()

        return run_async(go())

    @pytest.mark.parametrize(
        "host", ["cluster-inline", "cluster-process", "service"]
    )
    def test_same_script_same_trail_epochs_and_load(self, host):
        if host == "service":
            evidence, snapshot = self.drive_service()
        else:
            evidence, snapshot = self.drive_cluster(host.split("-")[1])
        reference = self.spec("inline").build_monitor()
        drive_monitor(reference, self.script(), coalesce=self.COALESCE)
        assert trail_mismatches(evidence, reference.evidence) == []
        assert snapshot["epochs"]["count"] == reference.epoch
        assert snapshot["probes"] == {"count": 2, "violations": 2}
        # every epoch's fresh rounds dealt evenly, first worker first
        load = {str(worker): 0 for worker in range(self.WORKERS)}
        for epoch in range(1, reference.epoch + 1):
            fresh = sum(
                1 for e in reference.evidence.by_epoch(epoch) if not e.reused
            )
            for worker in range(self.WORKERS):
                share = (fresh + self.WORKERS - 1 - worker) // self.WORKERS
                load[str(worker)] += share
        assert snapshot["placement"]["load"] == {
            worker: count for worker, count in load.items() if count
        }
        assert snapshot["placement"]["spec"] == {"shards": self.WORKERS}


# -- one admission plane under both front-ends ---------------------------------


class TestOneAdmissionPlane:
    """`VerificationService` is a door of a `Cluster`, not a second
    coordinator: the same script yields the same admission accounting
    through either — writes queue, coalesce and are refused at depth;
    reads are answered at the door and touch none of that."""

    DEPTH = 8
    COALESCE = 3

    @staticmethod
    def script():
        """Two waves, each submitted whole before anything is served.
        First: a 4-churn burst, a query, a probing churn (the query
        between them does not split the run: 5 adjacent churn -> groups
        of 3 + 2), an adjudication, a second query, a 2-churn burst
        that fills the queue (8 writes), a third query — admitted all
        the same — and a ninth write that finds the queue at depth.
        Then a 2-churn burst and an adjudication."""
        prefixes = serve_prefixes(4)
        marks = [
            ChurnRequest(marks=(("A", prefix),)) for prefix in prefixes
        ]
        probe = ChurnRequest(
            marks=(("A", prefixes[0]),),
            probes=(
                AuditProbe(asn="A", prefix=prefixes[0], recipient="B",
                           prover=LongerRouteProver),
            ),
        )
        first = marks + [
            QueryRequest(), probe, AdjudicateRequest(), QueryRequest(),
            *marks[:2], QueryRequest(), marks[2],
        ]
        second = marks[:2] + [AdjudicateRequest()]
        assert len(first) + len(second) == 15
        return first, second

    EXPECTED = {
        "churn": {"admitted": 9, "rejected": 1, "shed": 0, "completed": 9},
        "query": {"admitted": 3, "rejected": 0, "shed": 0, "completed": 3},
        "adjudicate": {
            "admitted": 2, "rejected": 0, "shed": 0, "completed": 2,
        },
        "coalesced_requests": 9,
        "coalesced_batches": {"count": 4, "max_size": 3, "mean_size": 2.25},
    }

    def spec(self):
        return serve_spec(
            4,
            workers=2,
            transport="inline",
            rng_seed=SEED,
            queue_depth=self.DEPTH,
            coalesce_max=self.COALESCE,
        )

    def drive_cluster(self):
        with self.spec().build() as cluster:
            for wave in self.script():
                for request in wave:
                    try:
                        cluster.submit(request)
                    except AdmissionError:
                        pass
                cluster.drain()
            return cluster.snapshot()

    def drive_service(self):
        async def go():
            service = service_for(self.spec())
            await service.start()
            for wave in self.script():
                futures = []
                for request in wave:
                    try:
                        futures.append(service.submit_nowait(request))
                    except AdmissionError:
                        pass
                await service.drain()
                await asyncio.gather(*futures, return_exceptions=True)
            await service.stop()
            return service.metrics.snapshot()

        return run_async(go())

    @pytest.mark.parametrize("host", ["cluster", "service"])
    def test_same_script_same_admission_accounting(self, host):
        snapshot = getattr(self, f"drive_{host}")()
        assert snapshot["schema"] == "repro.cluster/metrics"
        observed = {
            kind: {
                key: record[key]
                for key in ("admitted", "rejected", "shed", "completed")
            }
            for kind, record in snapshot["requests"].items()
        }
        epochs = snapshot["epochs"]
        observed["coalesced_requests"] = epochs["coalesced_requests"]
        observed["coalesced_batches"] = epochs["coalesced_batches"]
        assert observed == self.EXPECTED
        # both hosts fill the queue-delay / service-time split
        churn = snapshot["requests"]["churn"]
        assert churn["queue_delay"]["count"] == 9
        assert churn["service_time"]["count"] == 9
        # a read never waited, whichever door admitted it
        assert snapshot["requests"]["query"]["queue_delay"]["max_s"] == 0

    def test_the_service_exposes_the_coordinators_objects(self):
        service = service_for(self.spec())
        cluster = service.cluster
        try:
            for name in ("monitor", "evidence", "metrics", "executor",
                         "recorder"):
                assert getattr(service, name) is getattr(cluster, name)
        finally:
            cluster.stop()


# -- reads are answered at the door --------------------------------------------


def _canonical(payload):
    """A read's payload in a form two hosts' answers compare equal in:
    events by what ``trail_mismatches`` compares, the rest by value."""
    if isinstance(payload, tuple) and payload and hasattr(payload[0], "seq"):
        return tuple(
            (e.seq, e.epoch, e.round, e.asn, str(e.prefix), e.policy,
             e.reused, e.report.verdicts, e.report.all_evidence())
            for e in payload
        )
    return payload


class TestReadsAtTheDoor:
    """A `QueryRequest` never enters the queue: `AdmissionQueue.submit`
    answers it from the trail as of the last committed write group, on
    both doors (it is the one `submit` both use)."""

    DEPTH = 2
    COALESCE = 3

    def spec(self, **options):
        return serve_spec(
            4,
            workers=2,
            transport="inline",
            rng_seed=SEED,
            coalesce_max=self.COALESCE,
            **options,
        )

    def service(self, **options):
        return service_for(self.spec(**options))

    # (a) the asyncio door, while a write group is in flight

    def test_a_read_does_not_wait_for_the_write_in_flight(self):
        entered, release = threading.Event(), threading.Event()
        folding, fold_on = threading.Event(), threading.Event()

        def held_step(network):
            entered.set()
            assert release.wait(30)

        def held_fold(event):
            if not folding.is_set():
                folding.set()
                assert fold_on.wait(30)

        async def until(flag):
            for _ in range(3000):
                if flag.is_set():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("the write never got that far")

        async def go():
            service = self.service()
            await service.start()
            try:
                await service.request(ChurnRequest())
                before = len(service.evidence)
                assert before > 0
                service.evidence.subscribe(held_fold)
                churn = service.submit_nowait(ChurnRequest(
                    steps=(held_step, flap_session("O", "N2")),
                ))
                # in flight, nothing applied yet
                await until(entered)
                read = service.submit_nowait(QueryRequest("summary"))
                assert read.done() and not churn.done()
                assert read.result().queue_delay == 0
                assert read.result().payload["events"] == before
                release.set()
                # mid-fold: the store holds an event no reader may see
                await until(folding)
                assert len(service.evidence) > before
                read = service.submit_nowait(QueryRequest("summary"))
                assert read.done() and not churn.done()
                assert read.result().payload["events"] == before
                fold_on.set()
                outcome = (await churn).payload
                # read-your-writes for a client that awaited its write
                read = service.submit_nowait(QueryRequest("summary"))
                assert read.result().payload["events"] == (
                    before + len(outcome.events)
                ) == len(service.evidence)
                assert not service.cluster.queue._pending
            finally:
                release.set()
                fold_on.set()
                await service.stop()
            return service.metrics.snapshot()["requests"]["query"]

        query = run_async(go())
        assert query["admitted"] == query["completed"] == 3
        assert query["queue_delay"]["max_s"] == 0

    # (d) queue room

    def fill(self, submit, pending):
        """Depth-2 door: reads are admitted before, between and after
        the writes that fill it, the third write is refused, and only
        writes ever sit in the queue.  Returns the read handles."""
        reads = [submit(QueryRequest())]
        submit(ChurnRequest())
        reads.append(submit(QueryRequest("violations")))
        submit(AdjudicateRequest())
        with pytest.raises(AdmissionError):
            submit(ChurnRequest())
        reads.append(submit(QueryRequest("events", asn="A")))
        assert [t.request.kind for t in pending] == ["churn", "adjudicate"]
        return reads

    def test_a_full_queue_of_writes_does_not_refuse_a_read_cluster(self):
        with self.spec(queue_depth=self.DEPTH).build() as cluster:
            reads = self.fill(cluster.submit, cluster.queue._pending)
            assert all(t.completion is not None for t in reads)
            cluster.drain()
            record = cluster.snapshot()["requests"]
        assert record["query"]["rejected"] == 0
        assert record["query"]["completed"] == 3
        assert record["churn"]["rejected"] == 1

    def test_a_full_queue_of_writes_does_not_refuse_a_read_service(self):
        async def go():
            service = self.service(queue_depth=self.DEPTH)
            await service.start()
            try:
                # no await since start: nothing has been dispatched
                reads = self.fill(
                    service.submit_nowait, service.cluster.queue._pending
                )
                assert all(f.done() for f in reads)
                await service.drain()
            finally:
                await service.stop()
            return service.metrics.snapshot()["requests"]

        record = run_async(go())
        assert record["query"]["rejected"] == 0
        assert record["query"]["completed"] == 3
        assert record["churn"]["rejected"] == 1

    # (b) the property: a read is a pure function of the committed cut

    READS = st.sampled_from([
        QueryRequest("summary"),
        QueryRequest("violations"),
        QueryRequest("evidence"),
        QueryRequest("events", asn="A"),
        QueryRequest("events", prefix=Prefix.parse("10.1.0.0/16")),
    ])

    @staticmethod
    def script():
        return churn_script(serve_prefixes(4), rounds=6, violation_every=3)

    def cluster_reads(self, waves):
        payloads = []
        with self.spec().build() as cluster:
            for wave in waves:
                tickets = [cluster.submit(request) for request in wave]
                payloads += [
                    t.result().payload for t in tickets
                    if isinstance(t.request, QueryRequest)
                ]
                cluster.drain()
            return payloads, cluster.evidence

    def service_reads(self, waves):
        async def go():
            payloads = []
            service = self.service()
            await service.start()
            try:
                for wave in waves:
                    futures = [service.submit_nowait(r) for r in wave]
                    payloads += [
                        f.result().payload for f, r in zip(futures, wave)
                        if isinstance(r, QueryRequest)
                    ]
                    await service.drain()
                    await asyncio.gather(*futures)
            finally:
                await service.stop()
            return payloads, service.evidence

        return run_async(go())

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_a_read_equals_the_reference_cut_at_the_last_commit(self, data):
        """A churn script with reads interleaved at drawn positions,
        submitted in drawn waves (each wave whole before anything is
        served, so a read in wave k is admitted with exactly waves
        < k committed): every read's payload equals `answer_query` on
        the serial reference `Monitor`'s trail as it stood at that cut
        — through both doors, which also end on the reference's trail."""
        script = self.script()
        cuts = data.draw(st.sets(st.integers(1, len(script) - 1), max_size=3))
        slots = data.draw(st.lists(
            st.tuples(st.integers(0, len(script)), self.READS),
            min_size=1, max_size=6,
        ))
        waves, wave = [], []
        for index in range(len(script) + 1):
            if index in cuts:
                waves.append(wave)
                wave = []
            wave += [read for slot, read in slots if slot == index]
            if index < len(script):
                wave.append(script[index])
        waves.append(wave)

        reference = self.spec().build_monitor()
        expected = []
        for wave in waves:
            expected += [
                _canonical(answer_query(reference.evidence, request))
                for request in wave if isinstance(request, QueryRequest)
            ]
            drive_monitor(
                reference,
                [r for r in wave if isinstance(r, ChurnRequest)],
                coalesce=self.COALESCE,
            )
        for drive in (self.cluster_reads, self.service_reads):
            payloads, evidence = drive(waves)
            assert [_canonical(p) for p in payloads] == expected
            assert trail_mismatches(evidence, reference.evidence) == []


# -- burst schedules -----------------------------------------------------------


class TestBurstSchedules:
    def test_flap_storm_drives_the_service(self):
        """A same-tick burst of session bounces, then a full-table sweep
        of the monitored AS — the shape real BGP churn has, written out
        by hand."""

        async def go():
            net, prefixes = serve_network(4)
            service = make_service(net, shards=2)
            service.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            sessions = (("O", "N2"), ("X", "N1"))
            ops = [
                Op(0.0, ChurnRequest(steps=((bounce_session, pair),)))
                for pair in sessions * 3
            ]
            ops.append(Op(0.1, ChurnRequest(
                marks=tuple(("A", prefix) for prefix in prefixes),
            )))
            await service.start()
            report = await run_open_loop(service, ops, time_scale=0.0)
            await service.stop()
            return service, report

        service, report = run_async(go())
        assert not report.errors
        assert report.delivered == report.offered
        # the storm coalesced: far fewer epochs than churn requests
        churn = service.metrics.type_metrics("churn").completed
        assert service.metrics.epochs < churn
        # the settled full-table sweep reused the cache
        assert service.metrics.reused > 0

    def test_serve_burst_scenario_registered(self):
        assert "serve-burst" in workload.names()
        _, requests = workload.get("serve-burst")
        # storm + table reset steps
        assert sum(len(r.steps) for r in requests) == 5


# -- the bench driver ----------------------------------------------------------


class TestBenchDriver:
    def test_scripted_runs_agree_across_shard_counts(self):
        common = dict(prefixes=4, requests=10, seed=7, burst=3,
                      parity_sample=1, transport="inline")
        one, one_errors = run_workload(shards=1, **common)
        four, four_errors = run_workload(shards=4, **common)
        assert not one_errors and not four_errors
        for service in (one, four):
            assert service.metrics.parity_failed == 0
        for attribute in ("events", "verified", "reused", "violations"):
            assert getattr(one.metrics, attribute) == getattr(
                four.metrics, attribute
            )
        # the partition actually spread over multiple shards
        assert len(four.metrics.worker_events) > 1

    def test_open_loop_with_violations(self):
        # driven in bursts of 4: back-to-back, the reads no longer split
        # the churn runs, the 16 requests coalesce into two groups, and
        # every Byzantine probe (run after its group's epochs) lands
        # where a flap in the same group left no longer route to lie
        # about — an artefact of this schedule, not of the probes
        service, errors = run_workload(
            shards=2, prefixes=4, requests=16, seed=7, burst=4,
            violation_every=3, parity_sample=1, transport="inline",
        )
        assert not errors
        assert service.metrics.probe_violations > 0
        assert service.metrics.parity_failed == 0
        snapshot = service.metrics.snapshot()
        assert snapshot["probes"]["violations"] > 0
