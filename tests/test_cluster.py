"""The cluster API: the admission door, the named chooser registry,
and the acceptance criterion — a multi-process
:class:`~repro.cluster.cluster.Cluster` whose evidence trail is
**byte-identical** to an unsharded :class:`~repro.audit.monitor.Monitor`
for all four protocol variants, and whose served adjudications match
the reference's.
"""

import asyncio
import json
import os

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
from repro.crypto import rsa
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    ShortestFromSubset,
)
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import serve_network, serve_prefixes
from repro.pvr.session import VARIANTS

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


class TestWireDigest:
    """``RoundStats.wire_digest`` is what a round sent: the serial wire
    round and a pool worker's off-wire round agree on it, and the
    parity oracle sees a change that leaves the verdicts alone."""

    def test_serial_and_pooled_rounds_send_the_same_bytes(self):
        spec = make_spec(
            "minimum", policies=tuple(VARIANT_POLICIES.values()),
            workers=2, transport="process",
        )
        requests = churn_script(PREFIXES, rounds=2)
        cluster, evidence = run_script(spec, requests)
        assert cluster.metrics.parity_failed == 0
        reference = spec.build_monitor()
        drive_monitor(reference, requests)
        pooled = [e for e in evidence.events() if not e.reused]
        serial = [e for e in reference.events if not e.reused]
        assert [e.seq for e in pooled] == [e.seq for e in serial]
        for ours, theirs in zip(pooled, serial):
            assert len(ours.stats.wire_digest) == 32
            assert ours.stats.wire_digest == theirs.stats.wire_digest
        assert {e.report.variant for e in pooled} == set(VARIANTS)
        assert len({e.stats.wire_digest for e in pooled}) == len(pooled)

    def test_a_view_changed_on_the_worker_side_is_a_mismatch(
        self, monkeypatch
    ):
        """One view's bytes change in one worker round — the recipient's
        disclosures reversed, so its size does not — while what the
        round verifies does not: only the digest can tell."""
        from dataclasses import replace

        from repro.pvr.engine import VerificationSession
        from repro.pvr.minimum import RecipientView

        disclose = VerificationSession.disclose
        changed = []

        def reorder_one_view(session):
            views = dict(disclose(session))
            for party, view in views.items():
                if not changed and isinstance(view, RecipientView):
                    views[party] = replace(
                        view, disclosures=view.disclosures[::-1]
                    )
                    changed.append(session.round)
            return views

        spec = make_spec("minimum", parity_sample=0)
        requests = churn_script(PREFIXES, rounds=1)
        with monkeypatch.context() as patch:
            patch.setattr(VerificationSession, "disclose", reorder_one_view)
            _, evidence = run_script(spec, requests)
        [event] = [e for e in evidence.events() if e.round == changed[0]]
        assert reference_mismatches(spec, requests, evidence) == [
            f"seq {event.seq}: stats.wire_digest differs"
        ]


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

    def test_workers_and_max_work_are_checked_at_the_spec(self):
        """Regression: ``workers=0`` constructed and failed only in
        ``Cluster(spec)``, inside the pool; ``max_work=0`` failed only
        when a monitor was built from the spec."""
        with pytest.raises(ValueError, match="workers must be >= 1"):
            serve_spec(workers=0)
        with pytest.raises(ValueError, match="max_work must be >= 1"):
            serve_spec(max_work=0)
        assert serve_spec(workers=1, max_work=1).max_work == 1

    def test_placement_is_a_checked_no_op(self):
        for name in (None, "static", "consistent", "hotsplit"):
            assert make_spec("minimum", placement=name).placement == name
        with pytest.raises(ValueError):
            make_spec("minimum", placement="rendezvous")

    def test_ledger_is_none_true_or_a_policy(self):
        """Regression: ``ledger=False`` built a ledger whose policy was
        ``False``, which died in the middle of an epoch."""
        from repro.ledger import LedgerPolicy

        assert make_spec("minimum", ledger=None).ledger is None
        assert make_spec("minimum", ledger=True).ledger == LedgerPolicy()
        policy = LedgerPolicy(clean_epochs_to_promote=1)
        assert make_spec("minimum", ledger=policy).ledger is policy
        for value in (False, 1, "on", {}):
            with pytest.raises(
                TypeError, match="None, True or a LedgerPolicy"
            ):
                make_spec("minimum", ledger=value)

    def test_reference_monitor_matches_workers_construction(self):
        spec = make_spec("minimum")
        monitor = spec.build_monitor()
        assert [p.name for p in monitor.policies()] == ["A/min->B"]


# -- keys: made once, by the coordinator ---------------------------------------


@pytest.fixture
def coordinator_keygen(monkeypatch):
    """Make ``rsa.generate_keypair`` raise in any process but this one.
    Installed before a pool forks, so every worker inherits it: a worker
    that derives a key fails its round with an ``error`` frame."""
    coordinator = os.getpid()
    make = rsa.generate_keypair

    def guarded(*args, **kwargs):
        if os.getpid() != coordinator:
            raise AssertionError(f"worker {os.getpid()} generated a key")
        return make(*args, **kwargs)

    monkeypatch.setattr(rsa, "generate_keypair", guarded)


def join_provider(asn):
    """``asn`` appears, peered with A only (module-level: it pickles)."""

    def step(net):
        net.add_as(asn)
        net.connect(asn, "A")
        net.routers[asn].start_all_sessions(net.transport)

    return step


def announce(asn, prefix):
    def step(net):
        net.originate(asn, prefix)

    return step


@pytest.mark.usefixtures("coordinator_keygen")
class TestNoWorkerMakesAKey:
    """Keys are made by the coordinator, for the round parties; a
    worker gets them by fork or with its batch.  Each scenario runs on
    forked workers with no respawn and a trail byte-identical to the
    serial monitor's (a worker's key error would fail the request)."""

    def test_a_policy_installed_after_the_fork(self):
        from serve_driver import service_for

        spec = serve_spec(
            4, workers=2, transport="process", rng_seed=SEED
        )
        requests = churn_script(serve_prefixes(4), rounds=4)

        async def serve():
            # service_for installs the policy after the pool forked
            service = service_for(spec)
            assert len(service.monitor.keystore.table()) == 5
            await service.start()
            for request in requests:
                await service.request(request)
            await service.stop()
            return service

        service = asyncio.run(serve())
        assert service.metrics.respawns == []
        assert service.monitor.keystore.generated == 5
        assert reference_mismatches(spec, requests, service.evidence) == []

    def test_the_durable_cluster_shape(self, tmp_path):
        spec = serve_spec(
            4, workers=2, transport="process", rng_seed=SEED,
            journal=str(tmp_path / "journal"), journal_checkpoint_every=4,
        )
        requests = churn_script(serve_prefixes(4), rounds=6, violation_every=3)
        cluster = spec.build()
        try:
            assert cluster.snapshot()["keys_generated"] == 5
            for request in requests:
                cluster.request(request)
            assert cluster.metrics.respawns == []
            evidence = cluster.evidence
        finally:
            cluster.stop()
        assert reference_mismatches(spec, requests, evidence) == []
        recovered = spec.build()
        try:
            assert recovered.metrics.recoveries[0]["keys_generated"] == 0
        finally:
            recovered.stop()

    def test_a_provider_that_joins_after_the_fork(self):
        spec = serve_spec(
            4, workers=2, transport="process", rng_seed=SEED
        )
        prefix = serve_prefixes(4)[0]
        requests = [
            ChurnRequest(),
            ChurnRequest(steps=((join_provider, ("N4",)),)),
            ChurnRequest(steps=((announce, ("N4", prefix)),)),
        ]
        cluster = spec.build()
        try:
            assert "N4" not in cluster.monitor.keystore
            for request in requests:
                cluster.request(request)
            assert cluster.metrics.respawns == []
            # the coordinator made N4's key when a round first named it
            assert cluster.monitor.keystore.generated == 6
            assert any(
                "N4" in event.spec.providers
                for event in cluster.evidence.events()
            )
            evidence = cluster.evidence
        finally:
            cluster.stop()
        assert reference_mismatches(spec, requests, evidence) == []


class TestThePoolForksFirst:
    """A coordinator forks its pool before it builds its monitor or
    reads its journal: a worker inherits no trail, and holds only the
    keys its batches bring."""

    def test_a_recovering_coordinator_forks_before_it_reads_the_journal(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import cluster as cluster_module
        from repro.cluster import worker as worker_module

        spec = serve_spec(
            4, workers=2, transport="process", rng_seed=SEED,
            journal=str(tmp_path / "journal"), journal_checkpoint_every=2,
        )
        requests = churn_script(serve_prefixes(4), rounds=6, violation_every=3)
        half = len(requests) // 2
        first = spec.build()
        try:
            for request in requests[:half]:
                first.request(request)
        finally:
            first.stop()

        forked = []  # (worker, keys it held at fork)
        init = worker_module._ProcessWorker.__init__

        def counting_init(worker, *args):
            init(worker, *args)
            forked.append((worker, worker._keys_held))

        alive = []  # per recover_state call: is each forked worker up?
        recover = cluster_module.recover_state

        def watched_recover(*args, **kwargs):
            alive.append([worker.process.is_alive() for worker, _ in forked])
            return recover(*args, **kwargs)

        monkeypatch.setattr(
            worker_module._ProcessWorker, "__init__", counting_init
        )
        monkeypatch.setattr(cluster_module, "recover_state", watched_recover)
        recovered = spec.build()
        try:
            assert alive == [[True] * spec.workers]
            assert [held for _, held in forked] == [0] * spec.workers
            assert recovered.recovered_requests == half
            for request in requests[half:]:
                recovered.request(request)
            assert recovered.metrics.respawns == []
            evidence = recovered.evidence
        finally:
            recovered.stop()
        assert reference_mismatches(spec, requests, evidence) == []


# -- the churn CLI -------------------------------------------------------------


class TestChurnCLI:
    """``python -m repro.cluster`` is the one churn driver: any
    registered workload, with the ledger on and a closing adjudication
    served through the coordinator."""

    @staticmethod
    def main(*argv):
        from repro.cluster.__main__ import main

        return main(["--transport", "inline", *argv])

    def test_ledger_json_snapshot(self, tmp_path, capsys):
        out = tmp_path / "cluster.json"
        code = self.main(
            "--prefixes", "3", "--churns", "6", "--violations", "4",
            "--json", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "history chain verified: True" in stdout
        assert "CONFIRMED" in stdout
        document = json.loads(out.read_text())
        assert document["probes"]["violations"] == 1
        assert document["epochs"]["violations"] == 0
        ledger = document["ledger"]
        assert ledger["schema"] == "repro.ledger/snapshot"
        assert ledger["schema_version"] == 2
        assert ledger["levels"]["A"] == "QUARANTINED"
        assert ledger["history"]["verified"] is True
        assert document["requests"]["adjudicate"]["completed"] == 1

    @pytest.mark.parametrize("argv", [
        ("--promote-after", "3"),
        ("--rounds", "3"),
        ("--churns", "0"),
        ("--workers", "0"),
        ("--scenario", "nope"),
        ("--scenario", "churn-fig1", "--prefixes", "3"),
        ("--kill-worker", "1"),
        ("--checkpoint-every", "2"),
    ], ids=["promote-after", "rounds", "churns-0", "workers-0",
            "unknown-scenario", "sized-fixed-scenario", "kill-unpaired",
            "checkpoint-without-journal"])
    def test_bad_usage_exits_2(self, argv, capsys):
        try:
            code = self.main(*argv)
        except SystemExit as refused:  # argparse: an unknown flag
            code = refused.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--churns", "0"), "--churns must be >= 1, got 0"),
        (("--checkpoint-every", "-1", "--journal", "{journal}"),
         "--checkpoint-every must be >= 0, got -1"),
        (("--kill-at-epoch", "0", "--kill-worker", "0"),
         "--kill-at-epoch must be >= 1, got 0"),
    ], ids=["churns", "checkpoint-every", "kill-at-epoch"])
    def test_a_usage_error_names_the_flag(
        self, argv, message, tmp_path, capsys
    ):
        """The range checks live in ``churn_script``, ``ClusterSpec``
        and ``ChaosSpec``; the CLI names the flag that set the field."""
        journal = tmp_path / "journal"
        assert self.main(*(a.format(journal=journal) for a in argv)) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not journal.exists()

    def test_list_prints_every_registered_name(self, capsys):
        assert self.main("--list") == 0
        stdout = capsys.readouterr().out
        for name in workload.names():
            assert name in stdout

    def test_a_cheating_policy_fails_the_run(self, monkeypatch, capsys):
        """A violation found in an audit epoch exits 1 (a planted probe
        does not: the run expects to catch it)."""
        policy = PolicySpec(
            "A", NoLongerThanOthers(),
            {"name": "A/p4", "max_length": 8,
             "chooser": "discriminating:B"},
        )
        monkeypatch.setitem(
            workload._REGISTRY, "cheating-p4", ("test only", lambda **f: (
                serve_spec(PREFIX_COUNT, policies=(policy,), **f),
                churn_script(PREFIXES, rounds=2),
            )),
        )
        assert self.main("--scenario", "cheating-p4") == 1
        assert "violation event(s) in the audit epochs" in (
            capsys.readouterr().err
        )
