"""The accountability ledger: levels, history, feedback and parity.

Four groups:

* unit tests for the ladder rules (evidence-gated promotion, coverage,
  streaks, adjudicated-only slashing, pickling, eviction folding), the
  hash-chained history, the evidence-store satellites and the feedback
  components;
* Hypothesis property tests for the ledger invariants: levels never
  advance without logged evidence, the history is append-only and
  hash-chain consistent, and slashing is monotone within an epoch;
* the rate-1.0 identity: a ledger-enabled monitor's evidence trail is
  byte-identical to a ledger-free run for every protocol variant, and
  for a 2-process cluster;
* the payoff: trust-sampled verification strictly reduces steady-state
  signatures on an honest workload, and the CLI emits the
  schema-versioned snapshot.
"""

import dataclasses
import json
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.cluster.requests import (
    AdjudicateRequest,
    ChurnRequest,
)
from repro.cluster.workload import (
    churn_script,
    drive_monitor,
    reference_mismatches,
    serve_spec,
    trail_mismatches,
)
from repro.crypto.keystore import KeyStore
from repro.ledger import (
    GENESIS,
    LedgerPolicy,
    TransitionHistory,
    TrustLedger,
    TrustLevel,
    confirmed,
)
from repro.ledger.ledger import RULE_PROMOTE, RULE_SLASH
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import serve_network, serve_prefixes
from serve_driver import service_for
from test_cluster import VARIANT_POLICIES

SEED = 2011
PREFIX_COUNT = 3
PREFIXES = serve_prefixes(PREFIX_COUNT)


@dataclass
class FakeEvent:
    """The duck-typed slice of a VerdictEvent the ledger consumes."""

    seq: int
    asn: str
    epoch: Optional[int]
    violation: bool = False

    def violation_found(self) -> bool:
        return self.violation


def feed(ledger, events):
    for event in events:
        ledger.observe(event)


# -- the ladder --------------------------------------------------------------


class TestLevels:
    def test_ladder_order_and_saturation(self):
        assert (
            TrustLevel.QUARANTINED
            < TrustLevel.PROBATIONARY
            < TrustLevel.STANDARD
            < TrustLevel.TRUSTED
        )
        assert TrustLevel.STANDARD.next_up() is TrustLevel.TRUSTED
        assert TrustLevel.TRUSTED.next_up() is TrustLevel.TRUSTED

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            LedgerPolicy(clean_epochs_to_promote=0)
        with pytest.raises(ValueError):
            LedgerPolicy(min_coverage=0)

    def test_policy_normalizes_and_defaults(self):
        # the policy holds the promotion and slashing rules and nothing
        # else: no level changes how an AS is verified
        assert LedgerPolicy().describe() == {
            "initial_level": "PROBATIONARY",
            "clean_epochs_to_promote": 3,
            "min_coverage": 1,
            "slash_to": "QUARANTINED",
        }


class TestPromotion:
    def test_promotes_after_clean_streak_citing_evidence(self):
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=2))
        feed(ledger, [
            FakeEvent(1, "A", 1), FakeEvent(2, "A", 1),
            FakeEvent(3, "A", 2),
        ])
        ledger.settle()
        assert ledger.trust_level("A") is TrustLevel.STANDARD
        (record,) = ledger.history.records()
        assert record.rule == RULE_PROMOTE
        assert record.epoch == 2
        assert record.evidence_seqs == (3,)  # the settling bucket's seqs

    def test_low_coverage_epoch_neither_grows_nor_resets(self):
        ledger = TrustLedger(
            LedgerPolicy(clean_epochs_to_promote=2, min_coverage=2)
        )
        feed(ledger, [
            FakeEvent(1, "A", 1), FakeEvent(2, "A", 1),
            FakeEvent(3, "A", 2),                      # under-covered
            FakeEvent(4, "A", 3), FakeEvent(5, "A", 3),
        ])
        ledger.settle()
        # epochs 1 and 3 count, epoch 2 is a no-op: streak reached 2
        assert ledger.trust_level("A") is TrustLevel.STANDARD

    def test_violation_resets_streak_without_demotion(self):
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=2))
        feed(ledger, [
            FakeEvent(1, "A", 1),
            FakeEvent(2, "A", 2, violation=True),
            FakeEvent(3, "A", 3),
        ])
        ledger.settle()
        assert ledger.trust_level("A") is TrustLevel.PROBATIONARY
        assert ledger.history.records() == ()
        record = ledger.records()[0]
        assert record.violation_events == 1
        assert record.streak == 1  # epoch 3 restarted the streak

    def test_out_of_epoch_probe_counts_immediately(self):
        ledger = TrustLedger()
        feed(ledger, [
            FakeEvent(1, "A", None),
            FakeEvent(2, "A", None, violation=True),
        ])
        record = ledger.records()[0]
        assert record.clean_events == 1
        assert record.violation_events == 1
        assert record.streak == 0

    def test_trusted_saturates(self):
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=1))
        feed(
            ledger,
            [FakeEvent(e, "A", e) for e in range(1, 6)],
        )
        ledger.settle()
        assert ledger.trust_level("A") is TrustLevel.TRUSTED
        assert len(ledger.history) == 2  # PROB->STD, STD->TRUSTED only

    def test_settle_is_automatic_on_newer_epoch(self):
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=1))
        feed(ledger, [FakeEvent(1, "A", 1)])
        assert ledger.trust_level("A") is TrustLevel.PROBATIONARY
        feed(ledger, [FakeEvent(2, "A", 2)])  # epoch 2 settles epoch 1
        assert ledger.trust_level("A") is TrustLevel.STANDARD


class TestSlashing:
    def test_slash_requires_evidence(self):
        ledger = TrustLedger()
        with pytest.raises(ValueError):
            ledger.slash("A", evidence_seqs=())

    def test_fold_adjudications_slashes_guilty_once(self):
        class Ruling:
            def __init__(self, confirmed):
                self._confirmed = confirmed

            def guilty(self):
                return self._confirmed

            def upheld_complaints(self):
                return ()

        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=1))
        feed(ledger, [
            FakeEvent(1, "A", 1),
            FakeEvent(2, "A", 2, violation=True),
        ])
        ledger.settle()
        assert ledger.trust_level("A") is TrustLevel.STANDARD
        transitions = ledger.fold_adjudications({2: Ruling(True)})
        assert len(transitions) == 1
        assert transitions[0].rule == RULE_SLASH
        assert transitions[0].evidence_seqs == (2,)
        assert ledger.trust_level("A") is TrustLevel.QUARANTINED
        # idempotent per seq: re-folding the same ruling does nothing
        assert ledger.fold_adjudications({2: Ruling(True)}) == []
        assert ledger.records()[0].slashes == 1

    def test_dismissed_adjudication_changes_nothing(self):
        class Dismissed:
            def guilty(self):
                return False

            def upheld_complaints(self):
                return ()

        ledger = TrustLedger()
        feed(ledger, [FakeEvent(1, "A", 1, violation=True)])
        assert ledger.fold_adjudications({1: Dismissed()}) == []
        ledger.settle()
        assert ledger.trust_level("A") is TrustLevel.PROBATIONARY
        assert ledger.records()[0].slashes == 0
        assert len(ledger.history) == 0

    def test_demotions_only_cite_adjudicated_rule(self):
        """Every demotion row in history carries the slash rule — a
        violation verdict alone never produces one."""
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=1))
        feed(ledger, [
            FakeEvent(1, "A", 1),
            FakeEvent(2, "A", 2, violation=True),
            FakeEvent(3, "A", 3),
        ])
        ledger.settle()
        for record in ledger.history.records():
            if record.to_level < record.from_level:
                assert record.rule == RULE_SLASH


class TestLedgerPlumbing:
    def test_pickles_without_store(self):
        keystore = KeyStore(seed=SEED, key_bits=512)
        store = EvidenceStore(keystore)
        ledger = TrustLedger(
            LedgerPolicy(clean_epochs_to_promote=1)
        ).attach(store)
        feed(ledger, [FakeEvent(1, "A", 1), FakeEvent(2, "A", 2)])
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.store is None
        assert clone.trust_map() == ledger.trust_map()
        assert clone.history.verify()
        assert clone.history.head == ledger.history.head
        with pytest.raises(RuntimeError):
            ledger.attach(store)  # double-attach is refused

    def test_eviction_folds_into_durable_counters(self):
        keystore = KeyStore(seed=SEED, key_bits=512)
        network, prefixes = serve_network(PREFIX_COUNT)
        monitor = Monitor(
            keystore,
            rng_seed=SEED,
            store=EvidenceStore(keystore, max_events=2),
        ).attach(network)
        ledger = TrustLedger().attach(monitor.evidence)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       max_length=8)
        while monitor.pending():
            monitor.run_epoch()
        assert monitor.evidence.evicted > 0
        ledger.settle()
        record = next(r for r in ledger.records() if r.asn == "A")
        assert record.evicted_events == monitor.evidence.evicted
        # the durable totals still count everything ever observed
        assert record.clean_events > len(monitor.evidence.events())


# -- the hash-chained history ------------------------------------------------


class TestHistory:
    def test_chain_from_genesis(self):
        history = TransitionHistory()
        assert history.head == GENESIS
        first = history.append(
            asn="A", epoch=1, from_level=TrustLevel.PROBATIONARY,
            to_level=TrustLevel.STANDARD, rule=RULE_PROMOTE,
            evidence_seqs=(1, 2),
        )
        assert first.prev_hash == GENESIS
        second = history.append(
            asn="A", epoch=2, from_level=TrustLevel.STANDARD,
            to_level=TrustLevel.TRUSTED, rule=RULE_PROMOTE,
            evidence_seqs=(3,),
        )
        assert second.prev_hash == first.digest
        assert history.verify()
        assert history.for_asn("A") == history.records()
        assert history.for_asn("B") == ()

    def test_empty_evidence_refused(self):
        history = TransitionHistory()
        with pytest.raises(ValueError):
            history.append(
                asn="A", epoch=1, from_level=TrustLevel.PROBATIONARY,
                to_level=TrustLevel.STANDARD, rule=RULE_PROMOTE,
                evidence_seqs=(),
            )

    @pytest.mark.parametrize("field_name,value", [
        ("asn", "Z"),
        ("epoch", 99),
        ("to_level", TrustLevel.TRUSTED),
        ("rule", "forged"),
        ("evidence_seqs", (42,)),
    ])
    def test_tampering_breaks_the_chain(self, field_name, value):
        history = TransitionHistory()
        history.append(
            asn="A", epoch=1, from_level=TrustLevel.PROBATIONARY,
            to_level=TrustLevel.STANDARD, rule=RULE_PROMOTE,
            evidence_seqs=(1,),
        )
        history.append(
            asn="A", epoch=2, from_level=TrustLevel.STANDARD,
            to_level=TrustLevel.TRUSTED, rule=RULE_PROMOTE,
            evidence_seqs=(2,),
        )
        assert history.verify()
        history._records[0] = dataclasses.replace(
            history._records[0], **{field_name: value}
        )
        assert not history.verify()

    def test_deletion_and_reorder_break_the_chain(self):
        history = TransitionHistory()
        for epoch in (1, 2, 3):
            history.append(
                asn="A", epoch=epoch,
                from_level=TrustLevel.PROBATIONARY,
                to_level=TrustLevel.STANDARD, rule=RULE_PROMOTE,
                evidence_seqs=(epoch,),
            )
        forged = TransitionHistory()
        forged._records = [history._records[0], history._records[2]]
        assert not forged.verify()
        swapped = TransitionHistory()
        swapped._records = [history._records[1], history._records[0]]
        assert not swapped.verify()


# -- property tests ----------------------------------------------------------


def event_stream():
    """Random verdict-event streams: per-AS, epoch-ordered (with gaps
    and out-of-epoch probes mixed in), each event possibly a violation."""
    step = st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.booleans(),
    )
    return st.lists(step, min_size=0, max_size=40)


def materialize(stream):
    """Turn (asn, epoch_gap, violation) tuples into a valid event list:
    epochs are cumulative so they arrive in non-decreasing order, the
    way a store's subscriber sees them."""
    events, epoch, seq = [], 1, 0
    for asn, gap, violation in stream:
        seq += 1
        if gap is None:
            events.append(FakeEvent(seq, asn, None, violation))
        else:
            epoch += gap
            events.append(FakeEvent(seq, asn, epoch, violation))
    return events


class TestLedgerProperties:
    @settings(max_examples=60, deadline=None)
    @given(stream=event_stream())
    def test_levels_never_advance_without_logged_evidence(self, stream):
        """Replaying the history from the initial level reproduces the
        ledger's final level exactly, every promotion cites at least one
        evidence seq that is a real clean event of that AS, and there is
        no path to a higher level that bypasses the history."""
        events = materialize(stream)
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=2))
        feed(ledger, events)
        ledger.settle()
        clean_seqs = {
            (e.asn, e.seq) for e in events
            if not e.violation and e.epoch is not None
        }
        replay = {}
        for record in ledger.history.records():
            level = replay.get(
                record.asn, ledger.policy.initial_level
            )
            assert record.from_level == level
            assert record.evidence_seqs
            if record.to_level > record.from_level:
                assert record.rule == RULE_PROMOTE
                assert all(
                    (record.asn, seq) in clean_seqs
                    for seq in record.evidence_seqs
                )
            replay[record.asn] = record.to_level
        for asn in ("A", "B", "C"):
            assert ledger.trust_level(asn) == replay.get(
                asn, ledger.policy.initial_level
            )

    @settings(max_examples=60, deadline=None)
    @given(stream=event_stream())
    def test_history_is_append_only_and_chain_consistent(self, stream):
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=1))
        seen = []
        for event in materialize(stream):
            ledger.observe(event)
            records = ledger.history.records()
            # append-only: everything previously recorded is still
            # there, bitwise, in the same positions
            assert records[: len(seen)] == tuple(seen)
            seen = list(records)
        ledger.settle()
        assert ledger.history.records()[: len(seen)] == tuple(seen)
        assert ledger.history.verify()
        for index, record in enumerate(ledger.history.records()):
            assert record.index == index

    @settings(max_examples=60, deadline=None)
    @given(
        stream=event_stream(),
        slash_epoch=st.integers(min_value=1, max_value=4),
    )
    def test_slashing_is_monotone_within_an_epoch(
        self, stream, slash_epoch
    ):
        """After a slash at epoch E, no later-settled promotion of that
        AS carries an epoch <= E: within the epoch, down wins."""
        ledger = TrustLedger(LedgerPolicy(clean_epochs_to_promote=1))
        events = materialize(stream)
        midpoint = len(events) // 2
        feed(ledger, events[:midpoint])
        ledger.slash("A", evidence_seqs=(10_000,), epoch=slash_epoch)
        slash_index = len(ledger.history)
        feed(ledger, events[midpoint:])
        ledger.settle()
        for record in ledger.history.records()[slash_index:]:
            if record.asn == "A" and record.rule == RULE_PROMOTE:
                assert record.epoch > slash_epoch
        assert ledger.history.verify()


# -- evidence-store satellites ------------------------------------------------


class TestStoreSatellites:
    def _violating_monitor(self):
        keystore = KeyStore(seed=SEED, key_bits=512)
        network, prefixes = serve_network(PREFIX_COUNT)
        monitor = Monitor(keystore, rng_seed=SEED).attach(network)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       max_length=8)
        while monitor.pending():
            monitor.run_epoch()
        monitor.audit_once(
            "A", prefixes[0], "B", prover=LongerRouteProver(keystore)
        )
        return monitor, prefixes

    def test_violations_filters(self):
        monitor, prefixes = self._violating_monitor()
        store = monitor.evidence
        all_violations = store.violations()
        assert all_violations
        assert store.violations(asn="A") == all_violations
        assert store.violations(asn="ZZ") == ()
        assert store.violations(prefix=prefixes[0]) == all_violations
        assert store.violations(prefix=prefixes[1]) == ()
        assert store.violations(asn="A", prefix=prefixes[0]) == (
            all_violations
        )

    def test_on_evict_reports_dropped_clean_events_only(self):
        keystore = KeyStore(seed=SEED, key_bits=512)
        network, _ = serve_network(PREFIX_COUNT)
        monitor = Monitor(
            keystore,
            rng_seed=SEED,
            store=EvidenceStore(keystore, max_events=2),
        ).attach(network)
        evicted = []
        monitor.evidence.on_evict(evicted.append)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       max_length=8)
        while monitor.pending():
            monitor.run_epoch()
        assert len(evicted) == monitor.evidence.evicted
        assert evicted
        assert all(not e.violation_found() for e in evicted)


# -- the rate-1.0 identity and the cluster -----------------------------------


def make_spec(**overrides):
    options = dict(
        workers=2,
        placement="consistent",
        transport="inline",
        rng_seed=SEED,
        parity_sample=1,
    )
    options.update(overrides)
    return serve_spec(PREFIX_COUNT, **options)


class TestRateOneIdentity:
    @pytest.mark.parametrize("variant", [
        "minimum", "existential", "graph", "crosscheck",
    ])
    def test_monitor_trail_byte_identical_at_rate_one(self, variant):
        requests = churn_script(PREFIXES, rounds=4)
        policies = (VARIANT_POLICIES[variant],)
        ledgered = make_spec(
            policies=policies, ledger=LedgerPolicy(),
        ).build_monitor()
        drive_monitor(ledgered, requests)
        assert ledgered.ledger is not None
        assert reference_mismatches(
            make_spec(policies=policies), requests, ledgered.evidence
        ) == []

    def test_cluster_trail_byte_identical_at_rate_one(self):
        requests = churn_script(PREFIXES, rounds=4, violation_every=3)
        spec = make_spec(transport="process", ledger=LedgerPolicy())
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            assert reference_mismatches(
                make_spec(), requests, cluster.evidence
            ) == []
            assert cluster.metrics.parity_failed == 0
        finally:
            cluster.stop()

    def test_cluster_ledger_matches_ledgered_reference(self):
        """The cluster's ledger and a ledger-enabled reference monitor's
        settle by the same rule, so trails and trust maps match."""
        policy = LedgerPolicy(clean_epochs_to_promote=1)
        requests = churn_script(PREFIXES, rounds=6)
        cluster = make_spec(ledger=policy).build()
        try:
            for request in requests:
                cluster.request(request)
            reference = make_spec(ledger=policy).build_monitor()
            drive_monitor(reference, requests)
            assert reference.ledger.trust_level("A") is TrustLevel.TRUSTED
            assert trail_mismatches(
                cluster.evidence, reference.evidence
            ) == []
            assert cluster.ledger.trust_map() == (
                reference.ledger.trust_map()
            )
        finally:
            cluster.stop()

    def test_cluster_adjudication_slashes_and_snapshots(self):
        policy = LedgerPolicy(clean_epochs_to_promote=1)
        requests = churn_script(PREFIXES, rounds=5, violation_every=4)
        cluster = make_spec(ledger=policy).build()
        try:
            for request in requests:
                cluster.request(request)
            rulings = cluster.request(AdjudicateRequest()).payload
            assert any(confirmed(ruling) for ruling in rulings.values())
            assert cluster.ledger.trust_level("A") is (
                TrustLevel.QUARANTINED
            )
            document = cluster.snapshot()
            assert document["ledger"]["schema"] == (
                "repro.ledger/snapshot"
            )
            assert document["ledger"]["schema_version"] == 2
            assert document["ledger"]["history"]["verified"]
            json.dumps(document)
        finally:
            cluster.stop()


    def test_served_adjudication_settles_before_it_slashes(self):
        """The judge rules on a settled ladder: every epoch a served
        adjudication follows is complete, so its clean streak counts
        before the slash resets it (as a serial run that settles, then
        folds the same rulings, counts it)."""
        policy = LedgerPolicy(clean_epochs_to_promote=3)
        requests = churn_script(PREFIXES, rounds=4, violation_every=4)
        cluster = make_spec(ledger=policy).build()
        try:
            for request in requests:
                cluster.request(request)
            assert cluster.ledger.snapshot()["open_epochs"]
            cluster.request(AdjudicateRequest())
            ledger = cluster.ledger
        finally:
            cluster.stop()
        reference = make_spec(ledger=policy).build_monitor()
        drive_monitor(reference, requests)
        reference.ledger.settle()
        reference.ledger.fold_adjudications(reference.evidence.adjudicate())
        assert ledger.snapshot()["open_epochs"] == []
        assert ledger.snapshot() == reference.ledger.snapshot()

    def test_cluster_adjudication_slashes_at_once(self):
        """Slashing is folded in by the served ``AdjudicateRequest``
        itself (as on the serve host), not at the next epoch's
        settle."""
        from repro.cluster.requests import AuditProbe

        spec = make_spec(ledger=LedgerPolicy(clean_epochs_to_promote=1))
        cluster = spec.build()
        try:
            for request in churn_script(PREFIXES, rounds=3):
                cluster.request(request)
            cluster.request(ChurnRequest(probes=(
                AuditProbe(asn="A", prefix=PREFIXES[0], recipient="B",
                           prover=LongerRouteProver),
            )))
            before = cluster.ledger.trust_level("A")
            cluster.request(AdjudicateRequest())
            assert before > TrustLevel.QUARANTINED
            assert cluster.ledger.trust_level("A") is (
                TrustLevel.QUARANTINED
            )
        finally:
            cluster.stop()


# -- the serve layer ---------------------------------------------------------


class TestServeLedger:
    def test_service_promotes_and_slashes(self):
        import asyncio

        from repro.cluster.requests import AuditProbe

        async def go():
            service = service_for(make_spec(
                parity_sample=0,
                ledger=LedgerPolicy(clean_epochs_to_promote=1),
            ))
            await service.start()
            try:
                for request in churn_script(PREFIXES, rounds=4):
                    await service.request(request)
                service.ledger.settle()
                assert service.ledger.trust_level("A") > (
                    TrustLevel.PROBATIONARY
                )
                # a violation probe + served adjudication slashes
                await service.request(ChurnRequest(probes=(
                    AuditProbe(asn="A", prefix=PREFIXES[0],
                               recipient="B",
                               prover=LongerRouteProver),
                )))
                await service.request(AdjudicateRequest())
                assert service.ledger.trust_level("A") is (
                    TrustLevel.QUARANTINED
                )
                assert service.ledger.history.verify()
                demotions = [
                    r for r in service.ledger.history.records()
                    if r.to_level < r.from_level
                ]
                assert demotions
                assert all(
                    r.rule == "slash:adjudicated" for r in demotions
                )
            finally:
                await service.stop()

        asyncio.run(go())
