"""The audit plane: Monitor epochs, incremental reuse, evidence store.

The load-bearing test here is the acceptance criterion for the
continuous-audit redesign: on a churned 64-AS topology, a Monitor whose
(AS, prefix, promise) inputs are unchanged performs *strictly fewer* RSA
signature operations in epoch N+1 than a cold re-run (measured via the
keystore counters), while verdicts and evidence stay byte-identical to
the one-shot VerificationSession path for the same inputs.
"""

import asyncio
import dataclasses

import pytest

from repro.audit import Monitor, round_randomness
from repro.audit import monitor as monitor_module
from repro.audit.monitor import MonitorError
from repro.audit.wire import ViewPayload
from repro.bgp.prefix import Prefix
from repro.cluster import PolicySpec, workload
from repro.crypto.keystore import KeyStore
from repro.net.simnet import Message
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    ShortestFromSubset,
    ShortestRoute,
)
from repro.pvr import scenarios
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.batching import BatchedDisclosure
from repro.pvr.engine import VerificationSession
from repro.pvr.evidence import Complaint
from repro.pvr.judge import DISMISSED, Judge
from repro.pvr.scenarios import figure1_network
from repro.serve import VerificationService
from repro.util.encoding import canonical_encode

PFX = Prefix.parse("10.0.0.0/8")
SEED = 2011


def make_monitor(net, seed=SEED, **options) -> Monitor:
    return Monitor(
        KeyStore(seed=seed, key_bits=512), rng_seed=seed, **options
    ).attach(net)


def view_bytes(view) -> bytes:
    """A round view's canonical bytes: its fields in declaration order
    (every signed artifact a view carries has a ``canonical()`` hook)."""
    return canonical_encode(
        tuple(getattr(view, f.name) for f in dataclasses.fields(view))
    )


class TestAcceptance:
    """The redesign's headline property, on the 64-AS churn scenario."""

    def test_incremental_epoch_beats_cold_rerun_on_64as(self):
        spec, _ = workload.get("churn-64as", rng_seed=SEED)
        monitor = spec.build_monitor()
        net = monitor.network
        assert len(net.as_names()) == 64
        cold = monitor.run_epoch()
        assert cold.verified > 0 and cold.signatures > 0
        assert cold.violation_free()

        # churn that settles back: a session bounce re-announces every
        # route unchanged, then a full resync sweep re-audits everything
        scenarios.bounce_session("AS0", "AS1")(net)
        net.run_to_quiescence()
        monitor.resync()
        sign_before = monitor.keystore.sign_count
        incremental = monitor.run_epoch()
        incremental_signatures = monitor.keystore.sign_count - sign_before

        # a cold re-run of the same audit surface, for the baseline
        rerun = make_monitor(net, seed=SEED + 1)
        for policy in spec.policies:
            policy.install(rerun)
        sign_before = rerun.keystore.sign_count
        cold_rerun = rerun.run_epoch()
        cold_signatures = rerun.keystore.sign_count - sign_before

        # same audit surface...
        assert len(incremental.events) == len(cold_rerun.events)
        # ...strictly fewer RSA signatures on the incremental path
        assert incremental_signatures < cold_signatures
        assert incremental_signatures == 0  # inputs unchanged: all reused
        assert incremental.reused == len(incremental.events)

    def test_monitor_verdicts_byte_identical_to_one_shot_sessions(self):
        """Every freshly verified event reproduces byte-for-byte through
        a one-shot VerificationSession with the same spec, round, inputs
        and nonce stream — on a fresh keystore with the same seed."""
        spec, _ = workload.get("churn-64as", rng_seed=SEED)
        epoch = spec.build_monitor().run_epoch()
        fresh = [e for e in epoch.events if not e.reused]
        assert fresh

        replay_keystore = KeyStore(seed=SEED, key_bits=512)
        for event in fresh[:5]:
            session = VerificationSession(
                replay_keystore,
                event.spec,
                round=event.round,
                batching=True,
                random_bytes=round_randomness(SEED, event.round),
            )
            report = session.run(event.routes)
            assert report.verdicts == event.report.verdicts
            assert report.all_evidence() == event.report.all_evidence()
            assert report.all_complaints() == event.report.all_complaints()
            # what was signed and sent, not only what was concluded:
            # honest verdicts read the same under either protocol
            views = event.report.transcript.views
            assert report.transcript.views.keys() == views.keys()
            for party, view in report.transcript.views.items():
                assert view_bytes(view) == view_bytes(views[party]), party
            assert report.crypto == event.report.crypto
            assert report.crypto.signatures == event.stats.signatures

    def test_monitored_rounds_sign_one_disclosure_batch(self):
        """Section 3.8 on the audit plane: every disclosure of a fresh
        minimum round hangs off one signed batch root, so the round
        signs k announcements + k receipts + commitment + attestation +
        root — 2k + 3 — and still leaks nothing beyond the baseline."""
        epoch = workload.serve_spec(8).build_monitor().run_epoch()
        fresh = [e for e in epoch.events if not e.reused]
        assert len(fresh) == 8
        for event in fresh:
            view = event.report.transcript.views[event.spec.recipient]
            assert view.disclosures
            assert all(
                isinstance(d, BatchedDisclosure) for d in view.disclosures
            )
            assert len({d.root for d in view.disclosures}) == 1
            routed = sum(r is not None for r in event.routes.values())
            assert routed > 0
            assert event.stats.signatures == 2 * routed + 3
            assert event.report.confidentiality_ok is True

    def test_violation_evidence_byte_identical_to_one_shot(self):
        """The parity holds for violating rounds too: the monitor's
        evidence trail is exactly what a one-shot session would emit."""
        net = figure1_network()
        monitor = make_monitor(net)
        # pre-advance so the audited round has a known number
        event = monitor.audit_once(
            "A", PFX, "B",
            prover=LongerRouteProver(
                monitor.keystore, round_randomness(SEED, 1)
            ),
            max_length=8,
        )
        assert event.violation_found()

        replay_keystore = KeyStore(seed=SEED, key_bits=512)
        session = VerificationSession(
            replay_keystore,
            event.spec,
            round=event.round,
            prover=LongerRouteProver(
                replay_keystore, round_randomness(SEED, event.round)
            ),
            random_bytes=round_randomness(SEED, event.round),
        )
        report = session.run(event.routes)
        assert report.verdicts == event.report.verdicts
        assert report.all_evidence() == event.report.all_evidence()


class TestEpochScheduler:
    def test_churn_marks_dirty_and_epoch_drains(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8)
        assert monitor.pending()  # current state queued at registration
        epoch = monitor.run_epoch()
        assert epoch.verified == len(epoch.events) > 0
        assert not monitor.pending()
        # quiescent network, no churn: nothing to do
        assert monitor.run_epoch().events == []

    def test_the_plan_record_splits_its_entries(self):
        """Plan cost per dirty pair is readable off the trace: the
        ``plan`` record says how many pairs it took off the queue and
        how its entries split into fresh rounds and cache hits."""
        net, prefixes = scenarios.serve_network(3)
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",), max_length=8)
        assert monitor.run_epoch().verified == 3
        assert monitor.resync() == 3
        assert monitor.run_epoch().reused == 3
        plans = [
            record["attrs"]
            for record in monitor.tracer.records
            if record["name"] == "plan"
        ]
        cold = {"dirty": 3, "entries": 3, "fresh": 3, "reused": 0, "deferred": 0}
        assert plans == [cold, {**cold, "fresh": 0, "reused": 3}]

    def test_decision_changes_requeue(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8)
        monitor.run_epoch()
        scenarios.flap_session("O", "N2")(net)
        net.run_to_quiescence()
        assert ("A", PFX) in monitor.pending()
        epoch = monitor.run_epoch()
        assert epoch.verified > 0
        assert epoch.violation_free()
        # N2 lost its route, so it is no longer among the providers
        assert all("N2" not in e.spec.providers for e in epoch.events)

    def test_bounded_work_defers_and_resumes(self):
        net = figure1_network()
        monitor = make_monitor(net, max_work_per_epoch=1)
        monitor.policy("A", ShortestRoute(), max_length=8)
        first = monitor.run_epoch()
        assert first.verified == 1
        assert first.deferred
        assert monitor.pending()
        reports = monitor.run_until_idle()
        assert sum(e.verified for e in reports) >= 2
        # deferral resumes, never repeats: every tuple audited exactly
        # once across the burst, with no duplicate events of any kind
        all_events = list(first.events)
        for r in reports:
            all_events.extend(r.events)
        keys = [(e.asn, e.prefix, e.policy, e.spec.recipients)
                for e in all_events]
        assert len(keys) == len(set(keys))

    def test_bounded_epoch_with_persistent_violation_still_drains(self):
        """A never-cacheable failing tuple at the head of the queue must
        not starve later policies or livelock the scheduler."""
        net = figure1_network()
        monitor = make_monitor(net, max_work_per_epoch=1)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       name="p1", max_length=8)
        monitor.policy("A", lambda ps: ExistentialPromise(ps),
                       recipients=("B",), name="p2", max_length=8)
        net.transport.set_interceptor(
            "A",
            lambda m: None if (m.dst == "B"
                               and isinstance(m.payload, ViewPayload)) else m,
        )
        try:
            reports = [monitor.run_epoch()]
            reports.extend(monitor.run_until_idle())
        finally:
            net.transport.clear_interceptor("A")
        assert not monitor.pending()
        audited = {e.policy for r in reports for e in r.events}
        assert audited == {"p1", "p2"}  # the tail was not starved
        # one violation event per policy per burst, not per epoch
        violations = [e for r in reports for e in r.events
                      if e.violation_found()]
        assert len(violations) == 2

    def test_reuse_skips_crypto_on_unchanged_inputs(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8)
        cold = monitor.run_epoch()
        monitor.resync()
        warm = monitor.run_epoch()
        assert cold.signatures > 0
        assert warm.signatures == 0 and warm.verifications == 0
        assert warm.reused == len(warm.events) == len(cold.events)
        # the reused event serves the same report object
        assert warm.events[0].report is cold.events[0].report

    def test_changed_inputs_reverify(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",), max_length=8)
        monitor.run_epoch()
        scenarios.flap_session("O", "N2")(net)
        net.run_to_quiescence()
        epoch = monitor.run_epoch()
        assert epoch.reused == 0 and epoch.verified > 0

    def test_session_reestablishment_marks_exports_dirty(self):
        """A restored session resends the full table with no decision at
        the monitored AS — the export set toward the peer changed, so
        the audit plane must still pick it up (via the resync hook)."""
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",), max_length=8)
        monitor.run_epoch()
        # B is a pure recipient: dropping it fires no decision at A
        net.drop_session("A", "B")
        net.run_to_quiescence()
        monitor.run_epoch()
        net.routers["A"].start_session(net.transport, "B")
        net.run_to_quiescence()
        assert ("A", PFX) in monitor.pending()
        epoch = monitor.run_epoch()
        assert [e.spec.recipient for e in epoch.events] == ["B"]
        assert epoch.violation_free()

    def test_zero_work_bound_rejected(self):
        net = figure1_network()
        with pytest.raises(ValueError):
            make_monitor(net, max_work_per_epoch=0)
        monitor = make_monitor(net)
        with pytest.raises(ValueError):
            monitor.run_epoch(max_work=0)

    def test_detached_monitor_refuses_to_run(self):
        monitor = Monitor(KeyStore(seed=1, key_bits=512))
        with pytest.raises(MonitorError):
            monitor.run_epoch()
        with pytest.raises(MonitorError):
            monitor.policy("A", ShortestRoute())


class TestPolicyVariants:
    """Satellite: beyond the hardcoded ShortestRoute — an existential and
    a graph-variant policy end to end, plus the promise-4 cross-check."""

    def test_existential_policy_end_to_end(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy(
            "A", lambda providers: ExistentialPromise(providers),
            recipients=("B",), max_length=8,
        )
        epoch = monitor.run_epoch()
        assert epoch.verified == 1
        event = epoch.events[0]
        assert event.report.variant == "existential"
        assert event.ok()
        assert set(event.report.verdicts) == {"N1", "N2", "N3", "B"}

    def test_graph_variant_policy_end_to_end(self):
        net = figure1_network()
        monitor = make_monitor(net)
        # promise 2 over a strict subset of the providers resolves to the
        # generalized route-flow-graph protocol
        monitor.policy(
            "A", lambda providers: ShortestFromSubset(providers[:2]),
            recipients=("B",), max_length=8,
        )
        epoch = monitor.run_epoch()
        assert epoch.verified == 1
        event = epoch.events[0]
        assert event.report.variant == "graph"
        assert event.ok()
        assert "B" in event.report.verdicts

    def test_crosscheck_policy_end_to_end(self):
        net = figure1_network()
        # second customer so A serves two comparable recipients
        net.add_as("B2")
        net.connect("A", "B2")
        net.routers["A"].start_session(net.transport, "B2")
        net.run_to_quiescence()
        monitor = make_monitor(net)
        monitor.policy("A", NoLongerThanOthers(), max_length=8)
        epoch = monitor.run_epoch()
        crosschecks = [e for e in epoch.events
                       if e.report.variant == "crosscheck"]
        assert crosschecks
        event = crosschecks[0]
        assert set(event.spec.recipients) == {"B", "B2"}
        assert event.ok()

    def test_fixed_promisespec_policy(self):
        from repro.pvr.session import PromiseSpec

        net = figure1_network()
        monitor = make_monitor(net)
        spec = PromiseSpec(
            promise=ShortestRoute(),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B",),
            max_length=8,
        )
        monitor.policy("A", spec)
        epoch = monitor.run_epoch()
        assert epoch.verified == 1
        assert epoch.events[0].spec is spec
        # a prefix none of the pinned providers announce (A learns it
        # from B alone) is irrelevant to the pinned contract: no vacuous
        # wire round, no misleading "ok" event
        other = Prefix.parse("172.16.0.0/12")
        net.originate("B", other)
        net.run_to_quiescence()
        later = monitor.run_epoch()
        assert all(e.prefix != other for e in later.events)

    def test_per_neighbor_overrides_audit_in_same_epoch(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       name="p2", max_length=8)
        monitor.policy("A", lambda ps: ExistentialPromise(ps),
                       recipients=("B",), name="exists", max_length=8)
        epoch = monitor.run_epoch()
        assert {e.policy for e in epoch.events} == {"p2", "exists"}
        assert epoch.violation_free()


class TestTransportFaults:
    """Satellite: dropped/tampered wire messages surface as failed
    verdicts in the audit stream — never as crashes."""

    def test_dropped_recipient_view_fails_verdict_in_epoch(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",), max_length=8)

        def drop_views_to_b(message: Message):
            if message.dst == "B" and isinstance(message.payload, ViewPayload):
                return None
            return message

        net.transport.set_interceptor("A", drop_views_to_b)
        epoch = monitor.run_epoch()
        net.transport.clear_interceptor("A")
        assert len(epoch.events) == 1
        event = epoch.events[0]
        assert event.violation_found()
        assert not event.report.verdicts["B"].ok
        assert event in monitor.evidence.violations()

    def test_dropped_view_does_not_poison_the_cache(self):
        """Once the fault clears, the same inputs re-verify fresh and
        come back clean — a transient drop is never served from cache."""
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",), max_length=8)
        net.transport.set_interceptor(
            "A",
            lambda m: None if isinstance(m.payload, ViewPayload) else m,
        )
        bad = monitor.run_epoch()
        net.transport.clear_interceptor("A")
        assert not bad.violation_free()
        monitor.resync()
        good = monitor.run_epoch()
        assert good.reused == 0 and good.verified == len(good.events)
        assert good.violation_free()
        # now clean and cached: the next sweep reuses
        monitor.resync()
        assert monitor.run_epoch().reused == len(good.events)

    def test_tampered_view_yields_complaints_not_evidence(self):
        from repro.pvr.minimum import RecipientView

        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",), max_length=8)

        def corrupt(message: Message):
            if message.dst == "B" and isinstance(message.payload, ViewPayload):
                view = message.payload.view
                stripped = RecipientView(
                    vector=view.vector, attestation=None,
                    disclosures=view.disclosures,
                )
                return Message(src=message.src, dst=message.dst,
                               payload=ViewPayload(stripped))
            return message

        net.transport.set_interceptor("A", corrupt)
        epoch = monitor.run_epoch()
        net.transport.clear_interceptor("A")
        verdict = epoch.events[0].report.verdicts["B"]
        assert not verdict.ok
        assert verdict.evidence() == ()  # nothing transferable: honest A
        assert verdict.complaints()


class TestEvidenceStore:
    def test_queries(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8)
        monitor.run_epoch()
        monitor.audit_once(
            "A", PFX, "B",
            prover=LongerRouteProver(monitor.keystore), max_length=8,
        )
        store = monitor.evidence
        assert store.by_asn("A") == store.events()
        assert store.by_asn("B") == ()
        assert store.by_prefix(PFX) == store.events()
        assert len(store.violations()) == 1
        assert not store.violation_free()
        assert store.by_epoch(1)
        # out-of-epoch audits never pollute per-epoch queries
        assert all(e.ok() for e in store.by_epoch(1))
        assert store.by_epoch(None) == store.violations()
        summary = store.summary()
        assert summary["violations"] == 1
        assert summary["ases"] == ["A"]
        assert summary["last_epoch"] == 1

    def test_adjudication_on_demand(self):
        net = figure1_network()
        monitor = make_monitor(net)
        event = monitor.audit_once(
            "A", PFX, "B",
            prover=LongerRouteProver(monitor.keystore), max_length=8,
        )
        assert event.report.adjudication is None  # lazy until queried
        rulings = monitor.evidence.adjudicate()
        assert rulings[event.seq].guilty()
        assert event.report.adjudication is rulings[event.seq]

    def test_event_stream_subscription(self):
        net = figure1_network()
        monitor = make_monitor(net)
        seen = []
        monitor.subscribe(seen.append)
        monitor.policy("A", ShortestRoute(), max_length=8)
        epoch = monitor.run_epoch()
        assert seen == list(epoch.events) == list(monitor.events)


class TestBatchedTrail:
    """The judge over a monitored trail whose honest rounds are
    Section 3.8 batched and whose probes are Byzantine provers."""

    @pytest.fixture(scope="class")
    def driven(self):
        spec, requests = workload.get(
            "serve-churn", prefixes=3, rounds=6, violation_every=3,
            key_bits=512,
        )
        monitor = spec.build_monitor()
        return monitor, workload.drive_monitor(monitor, requests)

    def test_probes_upheld_and_no_honest_round_ruled_against(self, driven):
        monitor, outcomes = driven
        probes = [e for o in outcomes for e in o.probe_events]
        honest = [e for o in outcomes for e in o.events if not e.reused]
        assert len(probes) == 2 and honest
        rulings = monitor.evidence.adjudicate()
        assert set(rulings) == {e.seq for e in probes}
        for ruling in rulings.values():
            assert ruling.guilty() and ruling.evidence_ok()
        for event in honest:
            ruling = monitor.evidence.adjudicate(event)[event.seq]
            assert ruling.guilty() == ()
            assert ruling.upheld_complaints() == ()

    def test_false_disclosure_complaint_dismissed_by_the_batch(self, driven):
        monitor, outcomes = driven
        event = next(e for o in outcomes for e in o.events if not e.reused)
        detail = event.report.transcript.detail
        provider, view = next(
            (name, view) for name, view in detail.provider_views.items()
            if view.disclosure is not None
        )
        answer = view.disclosure
        assert isinstance(answer, BatchedDisclosure)
        complaint = Complaint(
            accuser=provider, accused=event.asn, round=event.round,
            claim="missing-disclosure", context=(answer.index,),
        )
        ruling = Judge(monitor.keystore).resolve_complaint(
            complaint, answer, vector=detail.recipient_view.vector
        )
        assert ruling.outcome == DISMISSED


class TestMultipleDecisionHooks:
    """Arming a policy does not clobber an existing decision hook."""

    def test_hooks_stack(self):
        net = figure1_network()
        router = net.router("A")
        first_calls, second_calls = [], []
        router.add_decision_hook(lambda *a: first_calls.append(a))
        router.add_decision_hook(lambda *a: second_calls.append(a))
        net.withdraw("O", PFX)
        net.run_to_quiescence()
        assert first_calls and second_calls

    def test_legacy_assignment_does_not_clobber_audit_plane(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8, audit_now=False)
        probe = []
        net.router("A").add_decision_hook(lambda *a: probe.append(a))
        scenarios.flap_session("O", "N2")(net)
        net.run_to_quiescence()
        assert probe  # the added hook fired...
        epoch = monitor.run_epoch()  # ...and so did the audit plane
        assert epoch.events
        assert epoch.violation_free()

    def test_remove_decision_hook(self):
        net = figure1_network()
        router = net.router("A")
        calls = []
        hook = router.add_decision_hook(lambda *a: calls.append(a))
        router.remove_decision_hook(hook)
        net.withdraw("O", PFX)
        net.run_to_quiescence()
        assert not calls


class TestArmedPoliciesAndProbes:
    def test_armed_policy_reuses_on_settled_churn(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8, audit_now=False)
        scenarios.bounce_session("O", "N2")(net)
        net.run_to_quiescence()
        first = monitor.run_epoch()
        assert first.events and first.violation_free()
        scenarios.bounce_session("O", "N2")(net)
        net.run_to_quiescence()
        second = monitor.run_epoch()
        assert second.events
        assert all(e.stats.reused for e in second.events)
        assert second.signatures == 0

    def test_parameterized_promise(self):
        net = figure1_network()
        monitor = make_monitor(net)
        event = monitor.audit_once(
            "A", PFX, "B", max_length=8,
            promise=ExistentialPromise(("N1", "N2", "N3")),
        )
        assert all(v.ok for v in event.report.verdicts.values())
        assert event is monitor.events[-1]
        assert event.report.variant == "existential"

    def test_per_round_promise_override(self):
        net = figure1_network()
        monitor = make_monitor(net)
        event = monitor.audit_once(
            "A", PFX, "B", max_length=8,
            promise=ShortestFromSubset(("N1", "N2")),
        )
        assert all(v.ok for v in event.report.verdicts.values())
        assert monitor.events[-1].report.variant == "graph"


class TestLongLivedHygiene:
    def test_pvr_inboxes_do_not_accumulate_across_epochs(self):
        """A continuous monitor must not leak wire payloads: every round
        drains its announcements, commitments and views."""
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8)
        for _ in range(3):
            monitor.resync()
            scenarios.bounce_session("O", "N2")(net)
            net.run_to_quiescence()
            monitor.run_epoch()
        assert all(
            net.router(asn).pvr_inbox == [] for asn in net.as_names()
        )

    def test_default_policy_names_stay_unique_after_removal(self):
        net = figure1_network()
        monitor = make_monitor(net)
        first = monitor.policy("A", ShortestRoute(), max_length=8)
        second = monitor.policy("A", ShortestRoute(), max_length=8)
        monitor.remove_policy(first)
        third = monitor.policy("A", ShortestRoute(), max_length=8)
        assert second.name != third.name

    def test_changed_chooser_invalidates_the_cache(self):
        """The export chooser is part of the contract's behaviour: a
        re-registered same-name policy with a cheating chooser must be
        re-verified, never served the honest chooser's cached verdicts."""
        net = figure1_network()
        net.add_as("B2")
        net.connect("A", "B2")
        net.routers["A"].start_session(net.transport, "B2")
        net.run_to_quiescence()
        monitor = make_monitor(net)
        honest = monitor.policy("A", NoLongerThanOthers(), name="p4",
                                max_length=8)
        assert monitor.run_epoch().violation_free()
        monitor.remove_policy(honest)
        monitor.policy("A", NoLongerThanOthers(), name="p4", max_length=8,
                       chooser="discriminating:B")
        monitor.resync()
        epoch = monitor.run_epoch()
        assert epoch.reused == 0
        assert not epoch.violation_free()

    def test_duplicate_user_supplied_names_rejected(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), name="p", max_length=8)
        with pytest.raises(ValueError):
            monitor.policy("A", ShortestRoute(), name="p", max_length=8)

    def test_detach_unhooks_the_network(self):
        net = figure1_network()
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), max_length=8)
        epoch = monitor.run_epoch()
        monitor.detach()
        assert net.router("A").decision_hooks() == ()
        scenarios.flap_session("O", "N2")(net)
        net.run_to_quiescence()
        assert not monitor.pending()  # churn no longer wakes it
        # the trail survives for offline queries
        assert monitor.evidence.by_epoch(epoch.epoch)
        with pytest.raises(MonitorError):
            monitor.attach(net)


class TestChooserNames:
    """A policy's chooser is a registry name, checked when the policy is
    registered — a bad one must fail there, not in an epoch that has
    already consumed the dirty marks."""

    def test_misspelt_name_fails_at_registration(self):
        monitor = workload.serve_spec(3).build_monitor()
        pending, policies = monitor.pending(), monitor.policies()
        with pytest.raises(KeyError, match="unknown chooser 'no-such'.*known"):
            monitor.policy("A", NoLongerThanOthers(), chooser="no-such")
        assert monitor.policies() == policies
        assert monitor.pending() == pending
        assert len(monitor.run_epoch().events) == len(pending) == 3

    def test_callable_chooser_is_refused_at_every_door(self):
        from repro.pvr.crosscheck import discriminating_chooser

        chooser = discriminating_chooser("B")
        spec = workload.serve_spec(3)
        monitor = spec.build_monitor()
        with pytest.raises(TypeError, match="register"):
            monitor.policy("A", NoLongerThanOthers(), chooser=chooser)
        with pytest.raises(TypeError, match="register"):
            PolicySpec(
                "A", NoLongerThanOthers(), {"chooser": chooser}
            ).install(monitor)
        service = VerificationService(spec.network(), shards=1)
        try:
            with pytest.raises(TypeError, match="register"):
                service.policy("A", NoLongerThanOthers(), chooser=chooser)
        finally:
            asyncio.run(service.stop())
        assert len(monitor.policies()) == 1


class TestFailedEpoch:
    def test_failed_serial_epoch_leaves_no_audit_hole(self, monkeypatch):
        """A round that raises mid-epoch records nothing and puts every
        pair of the plan back on the queue; the next epoch audits them
        all (the paper's §2.3 Detection property is never silently
        dropped for a pair)."""
        monitor = workload.serve_spec(3).build_monitor()
        pairs = set(monitor.pending())
        assert len(pairs) == 3
        real, calls = monitor_module.run_wire_round, []

        def second_round_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("transport fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(
            monitor_module, "run_wire_round", second_round_fails
        )
        with pytest.raises(RuntimeError, match="transport fault"):
            monitor.run_epoch()
        assert set(monitor.pending()) == pairs
        assert monitor.events == ()
        outcome = monitor.run_epoch()
        assert {(e.asn, e.prefix) for e in outcome.events} == pairs
        assert len(monitor.events) == 3 and not monitor.pending()


class TestChurnRunner:
    @staticmethod
    def run(name, **fields):
        spec, requests = workload.get(name, key_bits=512, **fields)
        monitor = spec.build_monitor()
        return monitor, workload.drive_monitor(monitor, requests)

    def test_bounded_run_still_audits_every_policy(self):
        """A work bound defers — it must never leave part of the audit
        surface unverified at the end of a churn run."""
        monitor, _ = self.run("churn-64as", max_work=2)
        assert not monitor.pending()
        audited = {e.asn for e in monitor.events}
        registered = {p.asn for p in monitor.policies()}
        assert audited == registered
        assert monitor.evidence.violation_free()

    def test_run_by_name(self):
        monitor, outcomes = self.run("churn-steady")
        epochs = [r for o in outcomes for r in o.reports]
        assert monitor.evidence.violation_free()
        assert sum(e.reused for e in epochs) > 0
        # every epoch after the cold start is pure reuse
        assert all(e.signatures == 0 for e in epochs[1:])
        assert sum(len(e.events) for e in epochs) == len(monitor.events)
        assert not monitor.pending()

    def test_request_by_request_leaves_the_same_trail(self):
        """Driving a script whole or one request at a time is the same
        run — what the ledger CLI's per-request rows rely on."""
        spec, requests = workload.get(
            "serve-churn", prefixes=3, rounds=6, violation_every=3,
            max_work=2,
        )
        whole, stepped = spec.build_monitor(), spec.build_monitor()
        outcomes = workload.drive_monitor(whole, requests)
        for request in requests:
            workload.drive_monitor(stepped, [request])
        assert len(outcomes) == len(requests)
        assert any(len(o.reports) > 1 for o in outcomes)  # the bound bit
        assert workload.trail_mismatches(
            whole.evidence, stepped.evidence, limit=None
        ) == []


class TestSimnetTransport:
    """Satellite: the audit plane over simnet links with real latency
    and lossy interceptors — the delay/drop paths the serving layer's
    gateway leans on."""

    @staticmethod
    def latent_figure1(latency):
        from repro.bgp.network import BGPNetwork

        net = BGPNetwork()
        for asn in ("O", "X", "N1", "N2", "N3", "A", "B"):
            net.add_as(asn)
        for a, b in (("O", "X"), ("X", "N1"), ("X", "N3"), ("O", "N2"),
                     ("N1", "A"), ("N2", "A"), ("N3", "A"), ("A", "B")):
            net.connect(a, b, latency=latency)
        net.establish_sessions()
        net.originate("O", PFX)
        net.run_to_quiescence()
        return net

    def test_epoch_advances_the_simulated_clock(self):
        """Verification rounds ride the same latent links as BGP: one
        epoch costs two message waves (announce, then commit+views), so
        the simulated clock advances by 2x the link latency."""
        net = self.latent_figure1(0.25)
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       max_length=8)
        before = net.transport.simulator.now
        epoch = monitor.run_epoch()
        elapsed = net.transport.simulator.now - before
        assert epoch.violation_free()
        assert elapsed == pytest.approx(0.5)

    def test_latency_never_changes_verdict_bytes(self):
        """Nonces derive from (seed, round), so a slow network produces
        the same evidence trail as a fast one, later."""
        slow = self.latent_figure1(0.5)
        fast = self.latent_figure1(0.001)
        trails = []
        for net in (slow, fast):
            monitor = make_monitor(net)
            monitor.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            epoch = monitor.run_epoch()
            trails.append(epoch.events)
        assert len(trails[0]) == len(trails[1]) == 1
        ours, theirs = trails[0][0], trails[1][0]
        assert ours.report.verdicts == theirs.report.verdicts
        assert ours.report.all_evidence() == theirs.report.all_evidence()
        assert ours.round == theirs.round

    def test_dropped_announcement_only_dents_the_cost_accounting(self):
        """The announce wave exists for transport-cost fidelity: the
        authoritative round inputs are the monitor's replay ``routes``
        (what the engine's announce step signed), so a lost announce
        *copy* never changes verdicts — it shows up as one missing
        message in the round's cost accounting.  Only the view/commit
        wave is consumed from the wire (see
        ``test_latent_lossy_view_still_fails_loudly``)."""
        from repro.audit.wire import AnnouncePayload

        def audit(drop: bool):
            net = self.latent_figure1(0.1)
            monitor = make_monitor(net)
            monitor.policy("A", ShortestRoute(), recipients=("B",),
                           max_length=8)
            if drop:
                net.transport.set_interceptor(
                    "N2",
                    lambda m: None
                    if (m.dst == "A"
                        and isinstance(m.payload, AnnouncePayload))
                    else m,
                )
            epoch = monitor.run_epoch()
            net.transport.clear_interceptor("N2")
            return epoch.events[0]

        clean, lossy = audit(drop=False), audit(drop=True)
        assert lossy.report.verdicts == clean.report.verdicts
        assert lossy.report.all_evidence() == clean.report.all_evidence()
        # the drop is visible exactly once, in the transport counters
        assert lossy.stats.messages == clean.stats.messages - 1
        assert lossy.stats.bytes < clean.stats.bytes

    def test_latent_lossy_view_still_fails_loudly(self):
        """Latency plus loss: the drop path behaves identically on a
        latent network — the verdict fails, the clock still advances."""
        net = self.latent_figure1(0.2)
        monitor = make_monitor(net)
        monitor.policy("A", ShortestRoute(), recipients=("B",),
                       max_length=8)
        net.transport.set_interceptor(
            "A",
            lambda m: None if (m.dst == "B"
                               and isinstance(m.payload, ViewPayload))
            else m,
        )
        before = net.transport.simulator.now
        epoch = monitor.run_epoch()
        net.transport.clear_interceptor("A")
        assert not epoch.violation_free()
        assert not epoch.events[0].report.verdicts["B"].ok
        assert net.transport.simulator.now > before
