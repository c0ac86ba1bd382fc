"""The cluster API: placement strategies, admission policies, the named
chooser registry, and the acceptance criterion — a multi-process
:class:`~repro.cluster.cluster.Cluster` whose folded evidence trail is
**byte-identical** to an unsharded :class:`~repro.audit.monitor.Monitor`
for all four protocol variants, including across an online
``ConsistentHash`` reshard that migrates ownership and commitment-cache
entries mid-run.
"""

import pickle

import pytest

from repro.audit import choosers
from repro.bgp.prefix import Prefix
from repro.cluster import (
    AdmissionError,
    ChurnRequest,
    ClusterSpec,
    ConsistentHash,
    DeadlineShed,
    HotSplit,
    PolicySpec,
    PriorityAdmission,
    QueryRequest,
    RejectAtDoor,
    ShedError,
    StaticHash,
    make_admission,
    make_placement,
    moved_pairs,
    pair_key,
)
from repro.cluster.workload import churn_script, drive_monitor, trail_mismatches
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    ShortestFromSubset,
    ShortestRoute,
)
from repro.pvr.scenarios import serve_network

SEED = 2011

PAIRS = [
    ("A", Prefix.parse(f"10.{i}.0.0/16")) for i in range(200)
]


# -- placement strategies ------------------------------------------------------


class TestStaticHash:
    def test_matches_the_legacy_modulo_partition(self):
        placement = StaticHash(4)
        for asn, prefix in PAIRS[:32]:
            assert placement.owner(asn, prefix) == pair_key(asn, prefix) % 4

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticHash(0)


class TestConsistentHash:
    def test_deterministic_and_picklable(self):
        ring = ConsistentHash(3)
        owners = [ring.owner(a, p) for a, p in PAIRS]
        assert owners == [ring.owner(a, p) for a, p in PAIRS]
        clone = pickle.loads(pickle.dumps(ring))
        assert [clone.owner(a, p) for a, p in PAIRS] == owners
        assert clone == ring

    def test_covers_every_shard(self):
        ring = ConsistentHash(4, vnodes=64)
        assert {ring.owner(a, p) for a, p in PAIRS} == {0, 1, 2, 3}

    def test_grow_moves_at_most_k_over_n_keys(self):
        """The consistent-hashing contract: growing N -> N+1 moves at
        most ~K/N of K keys (expected K/(N+1)), and every key that
        moves lands on the shard being added."""
        old = ConsistentHash(3, vnodes=128)
        new = old.with_shards(4)
        moved = moved_pairs(old, new, PAIRS)
        assert 0 < len(moved) <= len(PAIRS) // 3
        assert all(new.owner(a, p) == 3 for a, p in moved)

    def test_shrink_reassigns_only_the_removed_shards_keys(self):
        old = ConsistentHash(4, vnodes=128)
        new = old.with_shards(3)
        for asn, prefix in PAIRS:
            if old.owner(asn, prefix) != 3:
                assert new.owner(asn, prefix) == old.owner(asn, prefix)
            else:
                assert new.owner(asn, prefix) != 3

    def test_static_hash_moves_far_more(self):
        """The motivation for the ring: modulo reshards shuffle nearly
        everything, the ring moves ~1/(N+1)."""
        ring_moved = moved_pairs(
            ConsistentHash(3, vnodes=128),
            ConsistentHash(3, vnodes=128).with_shards(4),
            PAIRS,
        )
        static_moved = moved_pairs(StaticHash(3), StaticHash(4), PAIRS)
        assert len(ring_moved) * 2 < len(static_moved)


class TestHotSplit:
    def test_rebalance_is_deterministic(self):
        placement = HotSplit(3)
        loads = {0: 100, 1: 10, 2: 5}
        first = placement.rebalance(loads)
        second = placement.rebalance(dict(loads))
        assert first == second
        assert first != placement

    def test_split_moves_half_the_hot_shards_slots_to_the_coldest(self):
        placement = HotSplit(3, slots=12)
        rebalanced = placement.rebalance({0: 100, 1: 50, 2: 1})
        before = placement.assignment.count(0)
        after = rebalanced.assignment.count(0)
        assert after == before - before // 2
        # the moved slots all went to the coldest shard
        assert rebalanced.assignment.count(2) == (
            placement.assignment.count(2) + before // 2
        )

    def test_no_skew_no_move(self):
        placement = HotSplit(2)
        assert placement.rebalance({0: 5, 1: 5}) == placement
        assert HotSplit(1).rebalance({0: 100}) == HotSplit(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            HotSplit(4, slots=2)
        with pytest.raises(ValueError):
            HotSplit(2, slots=4, assignment=(0, 1, 2, 0))


class TestMakePlacement:
    def test_resolution(self):
        assert make_placement(None, 3) == StaticHash(3)
        assert make_placement("static", 2) == StaticHash(2)
        assert make_placement("consistent", 2) == ConsistentHash(2)
        assert isinstance(make_placement("hotsplit", 2), HotSplit)
        ring = ConsistentHash(5)
        assert make_placement(ring, 2) is ring
        with pytest.raises(ValueError):
            make_placement("rendezvous", 2)


# -- admission policies --------------------------------------------------------


class TestAdmissionPolicies:
    def test_reject_at_door(self):
        policy = RejectAtDoor()
        assert policy.at_door("churn", 0, 4)
        assert not policy.at_door("churn", 4, 4)
        assert policy.at_dispatch("churn", 1e9)

    def test_deadline_shed(self):
        policy = DeadlineShed(0.1, deadlines={"churn": None})
        assert policy.at_door("query", 3, 4)
        assert policy.at_dispatch("query", 0.05)
        assert not policy.at_dispatch("query", 0.2)
        # churn is exempted: never shed
        assert policy.at_dispatch("churn", 1e9)
        with pytest.raises(ValueError):
            DeadlineShed(0.0)

    def test_priority_admission_is_a_graduated_door(self):
        policy = PriorityAdmission()
        depth = 9
        # churn (top priority) may use the whole queue
        assert policy.at_door("churn", depth - 1, depth)
        # adjudication (lowest) only the first third
        assert policy.at_door("adjudicate", 2, depth)
        assert not policy.at_door("adjudicate", 3, depth)
        # queries two thirds
        assert policy.at_door("query", 5, depth)
        assert not policy.at_door("query", 6, depth)

    def test_make_admission(self):
        assert isinstance(make_admission(None), RejectAtDoor)
        assert isinstance(make_admission("reject"), RejectAtDoor)
        assert make_admission("deadline:0.5") == DeadlineShed(0.5)
        assert isinstance(make_admission("priority"), PriorityAdmission)
        policy = DeadlineShed(0.2)
        assert make_admission(policy) is policy
        with pytest.raises(ValueError):
            make_admission("fifo")

    def test_shed_error_is_an_admission_error(self):
        assert issubclass(ShedError, AdmissionError)


# -- the named chooser registry ------------------------------------------------


class TestChooserRegistry:
    def test_builtins_resolve(self):
        from repro.pvr.crosscheck import honest_chooser

        assert choosers.get("honest") is honest_chooser
        favored = choosers.get("discriminating:B1")
        assert callable(favored)
        assert choosers.resolve("honest") is honest_chooser
        assert choosers.resolve(None) is None
        assert choosers.resolve(honest_chooser) is honest_chooser

    def test_names_and_errors(self):
        assert "honest" in choosers.names()
        with pytest.raises(KeyError):
            choosers.get("no-such-chooser")
        with pytest.raises(ValueError):
            choosers.register("honest", lambda r, a: None)
        with pytest.raises(ValueError):
            choosers.register("with:colon", lambda r, a: None)


# -- the cluster acceptance criterion ------------------------------------------


def existential_factory(providers):
    """Module-level so it pickles by reference into worker processes."""
    return ExistentialPromise(providers)


def subset_factory(providers):
    return ShortestFromSubset(providers[:2])


VARIANT_POLICIES = {
    "minimum": PolicySpec(
        "A", ShortestRoute(),
        {"recipients": ("B",), "name": "A/min->B", "max_length": 8},
    ),
    "existential": PolicySpec(
        "A", existential_factory,
        {"recipients": ("B",), "name": "A/exists->B", "max_length": 8},
    ),
    "graph": PolicySpec(
        "A", subset_factory,
        {"recipients": ("B",), "name": "A/subset->B", "max_length": 8},
    ),
    "crosscheck": PolicySpec(
        "A", NoLongerThanOthers(), {"name": "A/p4", "max_length": 8},
    ),
}

PREFIX_COUNT = 3


def _network():
    return serve_network(PREFIX_COUNT)[0]


def make_spec(variant, **overrides):
    options = dict(
        network=_network,
        policies=(VARIANT_POLICIES[variant],),
        workers=3,
        placement="consistent",
        transport="inline",
        rng_seed=SEED,
        parity_sample=1,
    )
    options.update(overrides)
    return ClusterSpec(**options)


def run_script(spec, requests, *, reshard_to=None, reshard_at=None):
    cluster = spec.build()
    try:
        for index, request in enumerate(requests):
            cluster.request(request)
            if reshard_at is not None and index + 1 == reshard_at:
                cluster.reshard(workers=reshard_to)
        return cluster, cluster.evidence
    finally:
        cluster.stop()


def reference_trail(spec, requests):
    monitor = spec.build_monitor()
    drive_monitor(monitor, requests)
    return monitor.evidence


class TestClusterParity:
    """The acceptance suite: seq/round/verdict/crypto byte parity."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_cluster_matches_unsharded_monitor(self, variant):
        spec = make_spec(variant)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=5)
        cluster, evidence = run_script(spec, requests)
        assert evidence.events()
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []
        assert cluster.metrics.parity_failed == 0

    def test_parity_across_online_reshard_with_byzantine_probes(self):
        """One mid-run ConsistentHash grow (2 -> 3 workers): ownership
        and cache entries migrate, Byzantine probes keep firing, and
        the trail stays byte-identical — including the probes, whose
        nonce streams are the round's deterministic randomness."""
        spec = make_spec("minimum", workers=2)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=6, violation_every=3)
        cluster, evidence = run_script(
            spec, requests, reshard_to=3, reshard_at=4
        )
        assert any(e.violation_found() for e in evidence.events())
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []
        record = cluster.metrics.reshards[0]
        assert record["tracked_pairs"] == PREFIX_COUNT
        assert 0 <= record["moved_pairs"] <= PREFIX_COUNT
        assert cluster.workers == 3

    def test_grow_spawn_replay_is_snapshot_truncated(self):
        """The snapshot a grow-spawned worker adopts carries the donor's
        pickled network replica, so the coordinator truncates the churn
        log at the snapshot point: fast-forward replay is bounded by
        churn since the last snapshot (here zero), not cluster
        lifetime — and parity still holds."""
        spec = make_spec("minimum", workers=2)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=6)
        cluster = spec.build()
        try:
            for index, request in enumerate(requests):
                cluster.request(request)
                if index + 1 == 4:
                    assert len(cluster._churn_log) > 0
                    cluster.reshard(workers=3)
                    # the log was truncated at the snapshot point
                    assert cluster._churn_log == []
            counts = cluster.worker_counts()
            # the bound: the spawned worker replayed only post-snapshot
            # churn, which was empty — never the full history
            assert counts[2]["replayed_steps"] == 0
            reference = reference_trail(spec, requests)
            assert trail_mismatches(cluster.evidence, reference) == []
        finally:
            cluster.stop()

    def test_parity_on_real_processes(self):
        """The full stack: forked worker processes, pipe IPC, a grow
        reshard with cache migration across the pickle boundary."""
        spec = make_spec("minimum", workers=2, transport="process")
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        cluster, evidence = run_script(
            spec, requests, reshard_to=3, reshard_at=3
        )
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []
        assert cluster.metrics.parity_failed == 0

    def test_migrated_cache_entries_are_reused_not_reproved(self):
        """After a reshard, the new owner serves unchanged tuples from
        the *migrated* cache — the settled resync sweep costs zero
        signatures even though ownership moved."""
        spec = make_spec("minimum", workers=2)
        _, prefixes = serve_network(PREFIX_COUNT)
        warm = churn_script(prefixes, rounds=2, resync_after=False)
        cluster = spec.build()
        try:
            for request in warm:
                cluster.request(request)
            record = cluster.reshard(workers=3)
            assert record["migrated_cache_entries"] >= record["moved_pairs"]
            before = cluster.metrics.verified
            cluster.request(ChurnRequest(
                marks=tuple(("A", p) for p in prefixes),
            ))
            assert cluster.metrics.verified == before  # pure reuse
            swept = cluster.evidence.events()[-PREFIX_COUNT:]
            assert all(e.reused for e in swept)
        finally:
            cluster.stop()

    def test_hotsplit_rebalance_preserves_parity(self):
        spec = make_spec("minimum", placement="hotsplit", workers=2)
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=4)
        cluster = spec.build()
        try:
            mid = len(requests) // 2
            for request in requests[:mid]:
                cluster.request(request)
            cluster.rebalance()  # consumes the observed per-worker load
            for request in requests[mid:]:
                cluster.request(request)
            reference = reference_trail(spec, requests)
            assert trail_mismatches(cluster.evidence, reference) == []
        finally:
            cluster.stop()

    def test_named_chooser_runs_in_cluster_workers(self):
        """A crosscheck policy with a *named* chooser ships to workers
        (the registry resolves it on the far side) and still matches
        the reference monitor running the same named chooser."""
        policy = PolicySpec(
            "A", NoLongerThanOthers(),
            {"name": "A/p4", "max_length": 8,
             "chooser": "discriminating:B"},
        )
        spec = make_spec("crosscheck", policies=(policy,))
        _, prefixes = serve_network(PREFIX_COUNT)
        requests = churn_script(prefixes, rounds=3)
        cluster, evidence = run_script(spec, requests)
        assert evidence.events()
        reference = reference_trail(spec, requests)
        assert trail_mismatches(evidence, reference) == []


# -- the cluster admission plane -----------------------------------------------


class TestClusterAdmission:
    def test_queue_depth_rejects_at_door(self):
        spec = make_spec("minimum", queue_depth=2)
        cluster = spec.build()
        try:
            cluster.submit(QueryRequest())
            cluster.submit(QueryRequest())
            with pytest.raises(AdmissionError):
                cluster.submit(QueryRequest())
            assert cluster.metrics.type_metrics("query").rejected == 1
            cluster.pump()
        finally:
            cluster.stop()

    def test_deadline_shedding_resolves_with_shed_error(self):
        spec = make_spec(
            "minimum", admission=DeadlineShed(1e-9), queue_depth=8
        )
        cluster = spec.build()
        try:
            ticket = cluster.submit(QueryRequest())
            cluster.pump()
            with pytest.raises(ShedError):
                ticket.result()
            assert cluster.metrics.type_metrics("query").shed == 1
        finally:
            cluster.stop()

    def test_queries_read_the_folded_trail(self):
        spec = make_spec("minimum")
        _, prefixes = serve_network(PREFIX_COUNT)
        cluster = spec.build()
        try:
            cluster.request(ChurnRequest())
            summary = cluster.request(QueryRequest()).payload
            assert summary["events"] == PREFIX_COUNT
            events = cluster.request(
                QueryRequest(what="events", prefix=prefixes[0])
            ).payload
            assert all(e.prefix == prefixes[0] for e in events)
        finally:
            cluster.stop()

    def test_snapshot_schema(self):
        spec = make_spec("minimum")
        cluster = spec.build()
        try:
            cluster.request(ChurnRequest())
            snapshot = cluster.snapshot()
            assert snapshot["schema"] == "repro.cluster/metrics"
            assert snapshot["placement"]["spec"]["strategy"] == (
                "ConsistentHash"
            )
            assert snapshot["epochs"]["events"] == PREFIX_COUNT
            assert snapshot["admission"]["policy"] == "RejectAtDoor"
        finally:
            cluster.stop()


class TestInjectedProverReplayability:
    def test_reused_prover_instance_gets_each_rounds_nonce_stream(self):
        """run_wire_round seeds an injected prover with the round's
        deterministic nonces and restores it afterwards — a prover
        instance reused across rounds must produce round-2 commitments
        replayable from (seed, round 2), not round 1's stream."""
        from repro.audit.wire import round_randomness
        from repro.crypto.keystore import KeyStore
        from repro.pvr.adversary import LongerRouteProver
        from repro.pvr.engine import VerificationSession
        from repro.audit import Monitor

        net, prefixes = serve_network(2)
        monitor = Monitor(
            KeyStore(seed=SEED, key_bits=512), rng_seed=SEED
        ).attach(net)
        prover = LongerRouteProver(monitor.keystore)
        events = [
            monitor.audit_once("A", prefixes[0], "B", prover=prover,
                               max_length=8)
            for _ in range(2)
        ]
        assert prover.random_bytes is None  # restored after each round
        for event in events:
            replay = VerificationSession(
                monitor.keystore.worker_view(),
                event.spec,
                round=event.round,
                prover=LongerRouteProver(
                    monitor.keystore.worker_view(),
                    round_randomness(SEED, event.round),
                ),
                random_bytes=round_randomness(SEED, event.round),
            ).run(dict(event.routes))
            assert replay.verdicts == event.report.verdicts
            assert replay.all_evidence() == event.report.all_evidence()


class TestClusterSpecValidation:
    def test_bad_transport_and_depth(self):
        with pytest.raises(ValueError):
            ClusterSpec(network=_network, transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ClusterSpec(network=_network, queue_depth=0)

    def test_reference_monitor_matches_workers_construction(self):
        spec = make_spec("minimum")
        monitor = spec.build_monitor()
        assert [p.name for p in monitor.policies()] == ["A/min->B"]
