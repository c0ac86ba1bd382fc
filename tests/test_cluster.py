"""The cluster API: the admission door, the named chooser registry,
and the acceptance criterion — a multi-process
:class:`~repro.cluster.cluster.Cluster` whose evidence trail is
**byte-identical** to an unsharded :class:`~repro.audit.monitor.Monitor`
for all four protocol variants, and whose served adjudications match
the reference's.
"""

import json

import pytest

from repro.audit import choosers
from repro.cluster import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    PolicySpec,
    QueryRequest,
    ShedError,
)
from repro.cluster import workload
from repro.cluster.requests import answer_adjudicate
from repro.cluster.workload import (
    churn_script,
    drive_monitor,
    reference_mismatches,
    serve_spec,
)
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    ShortestFromSubset,
)
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import serve_network, serve_prefixes

SEED = 2011


# -- admission names ------------------------------------------------------------


class TestAdmissionPolicies:
    """There are none left — the one rule is the bounded write queue.
    What stays is the name the frozen ``benchmarks/e2e`` imports."""

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
        with pytest.raises(TypeError, match="register"):
            choosers.resolve(honest_chooser)

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
    "minimum": serve_spec().policies[0],
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
PREFIXES = serve_prefixes(PREFIX_COUNT)


def make_spec(variant, **overrides):
    options = dict(
        policies=(VARIANT_POLICIES[variant],),
        workers=3,
        placement="consistent",
        transport="inline",
        rng_seed=SEED,
        parity_sample=1,
    )
    options.update(overrides)
    return serve_spec(PREFIX_COUNT, **options)


def run_script(spec, requests):
    cluster = spec.build()
    try:
        for request in requests:
            cluster.request(request)
        return cluster, cluster.evidence
    finally:
        cluster.stop()


class TestClusterParity:
    """The acceptance suite: seq/round/verdict/crypto byte parity."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_cluster_matches_unsharded_monitor(self, variant):
        spec = make_spec(variant)
        requests = churn_script(PREFIXES, rounds=5)
        cluster, evidence = run_script(spec, requests)
        assert evidence.events()
        assert reference_mismatches(spec, requests, evidence) == []
        assert cluster.metrics.parity_failed == 0

    def test_parity_on_real_processes(self):
        """The full stack: forked worker processes, pipe IPC, results
        across the pickle boundary, Byzantine probes in between."""
        spec = make_spec("minimum", workers=2, transport="process")
        requests = churn_script(PREFIXES, rounds=4, violation_every=3)
        cluster, evidence = run_script(spec, requests)
        assert any(e.violation_found() for e in evidence.events())
        assert reference_mismatches(spec, requests, evidence) == []
        assert cluster.metrics.parity_failed == 0

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_served_adjudication_upholds_genuine_evidence(self, transport):
        """The coordinator's own keystore judges: with the default
        ``parity_sample=0`` a served adjudication of a caught probe
        rules exactly as the reference monitor's store does."""
        spec = make_spec(
            "minimum", workers=2, transport=transport, parity_sample=0
        )
        requests = [
            ChurnRequest(),
            ChurnRequest(probes=(
                AuditProbe(asn="A", prefix=PREFIXES[0], recipient="B",
                           prover=LongerRouteProver),
            )),
        ]
        cluster = spec.build()
        try:
            for request in requests:
                outcome = cluster.request(request).payload
            seq = outcome.probe_events[0].seq
            ruling = cluster.request(AdjudicateRequest(seq=seq)).payload[seq]
        finally:
            cluster.stop()
        monitor = spec.build_monitor()
        drive_monitor(monitor, requests)
        expected = answer_adjudicate(
            monitor.evidence, AdjudicateRequest(seq=seq)
        )[seq]
        assert ruling.evidence_ok()
        assert len(ruling.guilty()) == 1
        assert ruling.guilty() == expected.guilty()
        assert ruling.evidence_ok() == expected.evidence_ok()

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
        requests = churn_script(PREFIXES, rounds=3)
        cluster, evidence = run_script(spec, requests)
        assert evidence.events()
        assert reference_mismatches(spec, requests, evidence) == []


class TestRegisteredWorkloads:
    """Every registered churn workload is data the serving stack
    understands: its spec builds a cluster, its script crosses the
    admission plane, and the trail matches the spec's own reference."""

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.slow)
        if name == "churn-64as" else name
        for name in workload.names()
    ])
    def test_serves_through_a_cluster_with_parity(self, name):
        spec, requests = workload.get(
            name, workers=2, transport="inline", parity_sample=1
        )
        assert requests[0] == ChurnRequest() and requests[-1].marks
        cluster, evidence = run_script(spec, requests)
        assert evidence.events()
        assert reference_mismatches(spec, requests, evidence) == []
        assert cluster.metrics.parity_failed == 0

    def test_unknown_and_duplicate_names_are_refused(self):
        with pytest.raises(KeyError, match="known: churn-64as"):
            workload.get("no-such-workload")
        with pytest.raises(ValueError, match="already registered"):
            workload.register("churn-fig1", "again", lambda **fields: None)


# -- the cluster admission plane -----------------------------------------------


class TestClusterAdmission:
    def test_queue_depth_rejects_at_door(self):
        spec = make_spec("minimum", queue_depth=2)
        cluster = spec.build()
        try:
            cluster.submit(ChurnRequest())
            cluster.submit(ChurnRequest())
            with pytest.raises(AdmissionError):
                cluster.submit(ChurnRequest())
            assert cluster.metrics.type_metrics("churn").rejected == 1
            cluster.pump()
        finally:
            cluster.stop()

    def test_queries_read_the_folded_trail(self):
        spec = make_spec("minimum")
        cluster = spec.build()
        try:
            cluster.request(ChurnRequest())
            summary = cluster.request(QueryRequest()).payload
            assert summary["events"] == PREFIX_COUNT
            events = cluster.request(
                QueryRequest(what="events", prefix=PREFIXES[0])
            ).payload
            assert all(e.prefix == PREFIXES[0] for e in events)
        finally:
            cluster.stop()

    def test_snapshot_schema(self):
        spec = make_spec("minimum")
        cluster = spec.build()
        try:
            cluster.request(ChurnRequest())
            snapshot = cluster.snapshot()
            assert snapshot["schema"] == "repro.cluster/metrics"
            assert snapshot["placement"]["spec"] == {"shards": 3}
            assert snapshot["epochs"]["events"] == PREFIX_COUNT
            assert snapshot["schema_version"] == 8
        finally:
            cluster.stop()

    def test_cluster_snapshot_carries_epoch_wall_and_batches(self):
        """Per-epoch wall clock and coalesced batch sizes surface on
        the snapshot (and hence on --json)."""
        requests = churn_script(PREFIXES, rounds=4)
        spec = make_spec("minimum", workers=2, coalesce_max=4)
        cluster = spec.build()
        try:
            for request in requests:
                cluster.submit(request)
            cluster.pump()
            snapshot = cluster.snapshot()
        finally:
            cluster.stop()
        epochs = snapshot["epochs"]
        assert epochs["wall"]["count"] > 0
        assert epochs["wall"]["max_s"] > 0
        batches = epochs["coalesced_batches"]
        assert batches["count"] > 0
        assert batches["max_size"] > 1, "no churn burst ever coalesced"
        assert sum(snapshot["placement"]["load"].values()) > 0
        json.dumps(snapshot)


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
            serve_spec(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            serve_spec(queue_depth=0)

    def test_placement_is_a_checked_no_op(self):
        for name in (None, "static", "consistent", "hotsplit"):
            assert make_spec("minimum", placement=name).placement == name
        with pytest.raises(ValueError):
            make_spec("minimum", placement="rendezvous")

    def test_reference_monitor_matches_workers_construction(self):
        spec = make_spec("minimum")
        monitor = spec.build_monitor()
        assert [p.name for p in monitor.policies()] == ["A/min->B"]
