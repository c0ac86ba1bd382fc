"""The unified verification engine: lifecycle, variant resolution, and
verdict parity between the engine and the legacy per-protocol pipelines.

The parity classes are the contract the refactor rests on: the *same*
``PromiseSpec`` scenario, run through ``VerificationSession``, must
produce verdicts identical (party by party, violation kind by violation
kind) to a hand-assembled round using the raw protocol primitives —
for every variant and for every adversary class.
"""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.net.gossip import GossipLayer, exchange
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    ShortestFromSubset,
    ShortestRoute,
    WithinKHops,
    YouGetWhatYoureGiven,
)
from repro.pvr import existential as existential_mod
from repro.pvr import minimum as minimum_mod
from repro.pvr import scenarios
from repro.pvr.access import paper_alpha
from repro.pvr.adversary import (
    BadOpeningProver,
    EquivocatingProver,
    LongerRouteProver,
    LyingSuppressor,
    NoDisclosureProver,
    NonMonotoneProver,
    NoReceiptProver,
    SuppressingProver,
    UnderstatingProver,
)
from repro.pvr.announcements import make_announcement
from repro.pvr.crosscheck import (
    cross_check,
    discriminating_chooser,
    honest_chooser,
    withholding_chooser,
)
from repro.pvr.engine import VerificationSession, derive_skeleton
from repro.pvr.judge import Judge
from repro.pvr.navigation import (
    Navigator,
    verify_as_input_owner,
    verify_as_output_recipient,
)
from repro.pvr.protocol import GraphProver, GraphRoundConfig
from repro.pvr.session import PromiseSpec, SessionError
from repro.rfg.builder import figure2_graph

PFX = Prefix.parse("203.0.113.0/24")
PROVIDERS = ("N1", "N2", "N3")
MAX_LEN = 8


def route(neighbor, length):
    return Route(
        prefix=PFX,
        as_path=ASPath((neighbor,) + tuple(f"T{i}" for i in range(length - 1))),
        neighbor=neighbor,
    )


ROUTES = {"N1": route("N1", 3), "N2": route("N2", 2), "N3": route("N3", 4)}


def minimum_spec(**overrides):
    params = dict(
        promise=ShortestRoute(),
        prover="A",
        providers=PROVIDERS,
        recipients=("B",),
        max_length=MAX_LEN,
    )
    params.update(overrides)
    return PromiseSpec(**params)


def verdict_signature(verdicts):
    """Comparable digest of a verdict set: per party, ok-ness plus the
    sorted multiset of violation kinds."""
    return {
        party: (v.ok, sorted(viol.kind for viol in v.violations))
        for party, v in verdicts.items()
    }


class TestVariantResolution:
    @pytest.mark.parametrize(
        "promise, recipients, expected",
        [
            (ShortestRoute(), ("B",), "minimum"),
            (WithinKHops(2), ("B",), "minimum"),
            (ShortestFromSubset(PROVIDERS), ("B",), "minimum"),
            (ShortestFromSubset(("N1", "N2")), ("B",), "graph"),
            (ExistentialPromise(PROVIDERS), ("B",), "existential"),
            (ExistentialPromise(("N1",)), ("B",), "graph"),
            (YouGetWhatYoureGiven(), ("B",), "graph"),
            (NoLongerThanOthers(), ("B1", "B2"), "crosscheck"),
        ],
    )
    def test_auto_resolution(self, promise, recipients, expected):
        spec = PromiseSpec(
            promise=promise, prover="A", providers=PROVIDERS,
            recipients=recipients, max_length=MAX_LEN,
        )
        assert spec.resolve_variant() == expected

    def test_hand_built_plan_forces_graph(self):
        spec = minimum_spec(plan=figure2_graph(PROVIDERS))
        assert spec.resolve_variant() == "graph"

    def test_crosscheck_needs_two_recipients(self):
        spec = minimum_spec(variant="crosscheck")
        with pytest.raises(SessionError):
            spec.resolve_variant()

    def test_minimum_serves_one_recipient(self):
        spec = PromiseSpec(
            promise=ShortestRoute(), prover="A", providers=PROVIDERS,
            recipients=("B1", "B2"), variant="minimum",
        )
        with pytest.raises(SessionError):
            spec.resolve_variant()

    def test_slack_derived_from_promise(self):
        assert minimum_spec(promise=WithinKHops(3)).slack == 3
        assert minimum_spec().slack == 0
        assert minimum_spec(promise=WithinKHops(3)).round_config(1).slack == 3

    def test_every_promise_compiles_to_a_plan(self):
        for promise in (
            ShortestRoute(),
            WithinKHops(1),
            ShortestFromSubset(("N1", "N2")),
            ExistentialPromise(PROVIDERS),
            NoLongerThanOthers(),
            YouGetWhatYoureGiven(),
        ):
            spec = PromiseSpec(
                promise=promise, prover="A", providers=PROVIDERS,
                recipients=("B1", "B2")
                if isinstance(promise, NoLongerThanOthers) else ("B",),
            )
            plan = spec.compile_plan()
            assert plan.outputs(), promise.describe()


class TestLifecycle:
    def test_phases_must_run_in_order(self, keystore):
        session = VerificationSession(keystore, minimum_spec())
        with pytest.raises(SessionError):
            session.commit()
        with pytest.raises(SessionError):
            session.verify()
        session.announce(ROUTES)
        with pytest.raises(SessionError):
            session.announce(ROUTES)
        with pytest.raises(SessionError):
            session.verify()
        session.commit()
        with pytest.raises(SessionError):
            session.adjudicate()
        session.disclose()
        report = session.verify()
        assert report is session.report

    def test_verify_may_be_rerun(self, keystore):
        session = VerificationSession(keystore, minimum_spec())
        session.announce(ROUTES)
        session.commit()
        session.disclose()
        first = session.verify()
        second = session.verify()
        assert verdict_signature(first.verdicts) == verdict_signature(
            second.verdicts
        )

    def test_commit_returns_signed_statement(self, keystore):
        session = VerificationSession(keystore, minimum_spec(), round=3)
        session.announce(ROUTES)
        statement = session.commit()
        assert statement is not None
        assert statement.author == "A"
        assert session.commitment is statement

    def test_crypto_counters_accumulate(self, keystore):
        session = VerificationSession(keystore, minimum_spec(), round=4)
        report = session.run(ROUTES)
        assert report.crypto.signatures > 0
        assert report.crypto.verifications > 0

    def test_batching_is_an_engine_option(self, keystore):
        plain = VerificationSession(
            keystore, minimum_spec(), round=5
        ).run(ROUTES)
        batched = VerificationSession(
            keystore, minimum_spec(), round=6, batching=True
        ).run(ROUTES)
        assert batched.ok() and plain.ok()
        assert batched.crypto.signatures < plain.crypto.signatures

    def test_adjudication_stored_on_report(self, keystore):
        session = VerificationSession(
            keystore, minimum_spec(), round=7,
            prover=LongerRouteProver(keystore),
        )
        report = session.run(ROUTES, judge=Judge(keystore))
        assert report.violation_found()
        assert report.adjudication is not None
        assert report.adjudication.evidence_ok()
        assert report.adjudication.guilty()


class TestMinimumParity:
    """Engine vs the raw Section 3.3 primitives, per adversary class."""

    ADVERSARIES = [
        ("honest", None),
        ("longer-route", LongerRouteProver),
        ("understating", UnderstatingProver),
        ("suppressing", SuppressingProver),
        ("lying-suppressor", LyingSuppressor),
        ("non-monotone", NonMonotoneProver),
        ("equivocating", EquivocatingProver),
        ("bad-opening", BadOpeningProver),
        ("no-receipt", NoReceiptProver),
        ("no-disclosure", NoDisclosureProver),
    ]

    def _legacy(self, keystore, config, routes, prover):
        """The pre-engine pipeline, assembled from the raw primitives."""
        for asn in (config.prover, config.recipient) + tuple(config.providers):
            keystore.register(asn)
        if prover is None:
            prover = minimum_mod.HonestProver(keystore)
        announcements = minimum_mod.announce(keystore, config, routes)
        transcript = prover.run(config, announcements)
        verdicts = {}
        for provider in config.providers:
            verdicts[provider] = minimum_mod.verify_as_provider(
                keystore, config, provider, announcements.get(provider),
                transcript.provider_views[provider],
            )
        verdicts[config.recipient] = minimum_mod.verify_as_recipient(
            keystore, config, transcript.recipient_view
        )
        layers = {
            name: GossipLayer(name, keystore)
            for name in tuple(config.providers) + (config.recipient,)
        }
        for provider in config.providers:
            view = transcript.provider_views[provider]
            if view.vector is not None:
                layers[provider].observe(view.vector.statement)
        if transcript.recipient_view.vector is not None:
            layers[config.recipient].observe(
                transcript.recipient_view.vector.statement
            )
        return verdicts, tuple(exchange(layers.values()))

    @pytest.mark.parametrize(
        "name, prover_cls", ADVERSARIES, ids=[a[0] for a in ADVERSARIES]
    )
    def test_identical_verdicts(self, keystore, name, prover_cls):
        spec = minimum_spec()
        config = spec.round_config(11)
        legacy_verdicts, legacy_equivocations = self._legacy(
            keystore, config, ROUTES,
            prover_cls(keystore) if prover_cls else None,
        )
        session = VerificationSession(
            keystore, spec, round=11,
            prover=prover_cls(keystore) if prover_cls else None,
        )
        report = session.run(ROUTES)
        assert verdict_signature(report.verdicts) == verdict_signature(
            legacy_verdicts
        )
        assert len(report.equivocations) == len(legacy_equivocations)

    def test_gossip_ablation(self, keystore):
        spec = minimum_spec()
        report = VerificationSession(
            keystore, spec, round=13,
            prover=EquivocatingProver(keystore), gossip=False,
        ).run(ROUTES)
        assert not report.equivocations  # the split view goes unnoticed


class TestExistentialParity:
    """Engine vs the raw Section 3.2 primitives."""

    CASES = [
        ("all-announce", dict(ROUTES)),
        ("one-announces", {"N1": route("N1", 3), "N2": None, "N3": None}),
        ("nobody-announces", {"N1": None, "N2": None, "N3": None}),
    ]

    def _legacy(self, keystore, config, routes):
        announcements = minimum_mod.announce(keystore, config, routes)
        prover = existential_mod.ExistentialProver(keystore)
        transcript = prover.run(config, announcements)
        verdicts = {
            p: existential_mod.verify_as_provider(
                keystore, config, p, announcements.get(p),
                transcript.provider_views[p],
            )
            for p in config.providers
        }
        verdicts[config.recipient] = existential_mod.verify_as_recipient(
            keystore, config, transcript.recipient_view
        )
        return verdicts

    @pytest.mark.parametrize(
        "name, routes", CASES, ids=[c[0] for c in CASES]
    )
    def test_identical_verdicts(self, keystore, name, routes):
        spec = minimum_spec(promise=ExistentialPromise(PROVIDERS))
        assert spec.resolve_variant() == "existential"
        config = spec.round_config(21)
        for asn in spec.parties:
            keystore.register(asn)
        legacy_verdicts = self._legacy(keystore, config, routes)
        report = VerificationSession(keystore, spec, round=21).run(routes)
        assert verdict_signature(report.verdicts) == verdict_signature(
            legacy_verdicts
        )


class TestGraphParity:
    """Engine vs the raw Sections 3.5-3.7 primitives, and cross-variant
    agreement: the same promise verified by two protocols."""

    def _legacy(self, keystore, spec, routes, round_no):
        plan = spec.compile_plan()
        config = GraphRoundConfig(
            prover=spec.prover, round=round_no, max_length=spec.max_length
        )
        alpha = paper_alpha(plan)
        announcements = {}
        for vertex in plan.inputs():
            r = routes.get(vertex.party)
            if r is not None:
                announcements[vertex.name] = make_announcement(
                    keystore, r, vertex.party, spec.prover, round_no
                )
        prover = GraphProver(keystore, plan, alpha, config)
        receipts = prover.receive(announcements)
        root = prover.commit_round()
        attestation = prover.export_attestation("ro")
        verdicts = {}
        for vertex in plan.inputs():
            ann = announcements.get(vertex.name)
            nav = Navigator(keystore, vertex.party, prover, root)
            verdicts[vertex.party] = verify_as_input_owner(
                nav, config, vertex.name, ann, receipts.get(vertex.name)
            )
        nav_b = Navigator(keystore, spec.recipient, prover, root)
        verdicts[spec.recipient] = verify_as_output_recipient(
            nav_b, config, "ro", attestation,
            derive_skeleton(plan, "ro"),
            known_providers=spec.providers,
        )
        return verdicts

    def test_identical_verdicts_minimum_promise(self, keystore):
        spec = minimum_spec(variant="graph")
        for asn in spec.parties:
            keystore.register(asn)
        legacy_verdicts = self._legacy(keystore, spec, ROUTES, 31)
        report = VerificationSession(keystore, spec, round=31).run(ROUTES)
        assert report.variant == "graph"
        assert verdict_signature(report.verdicts) == verdict_signature(
            legacy_verdicts
        )

    def test_minimum_and_graph_variants_agree(self, keystore):
        """The tentpole claim: one PromiseSpec, two protocols, the same
        outcome."""
        spec_min = minimum_spec()
        spec_graph = minimum_spec(variant="graph")
        report_min = VerificationSession(
            keystore, spec_min, round=32
        ).run(ROUTES)
        report_graph = VerificationSession(
            keystore, spec_graph, round=32
        ).run(ROUTES)
        assert report_min.ok() and report_graph.ok()
        assert (report_min.honest_chosen_length
                == report_graph.honest_chosen_length)
        # both recipients end up holding the same exported route
        exported_min = report_min.transcript.views["B"].attestation.route
        exported_graph = report_graph.transcript.views["B"].route
        assert exported_min.as_path == exported_graph.as_path

    def test_figure2_plan_through_engine(self, keystore):
        spec = minimum_spec(plan=figure2_graph(PROVIDERS, recipient="B"))
        report = VerificationSession(keystore, spec, round=33).run(ROUTES)
        assert report.ok(), report.verdicts
        skeleton = derive_skeleton(spec.plan, "ro")
        assert [s.type_tag for s in skeleton] == [
            "shorter-of", "min-path-length",
        ]

    def test_dropped_messages_surface_in_verdicts(self, keystore):
        """The graph driver honors ``received``: a recipient whose
        attestation never arrived, and an owner whose receipt was
        dropped, must not verify clean."""
        spec = minimum_spec(variant="graph")
        session = VerificationSession(keystore, spec, round=35)
        session.announce(ROUTES)
        session.commit()
        views = session.disclose()
        # nothing arrived at B; N1's receipt was dropped in flight
        arrived = dict(views)
        del arrived["B"]
        announcement, _ = arrived["N1"]
        arrived["N1"] = (announcement, None)
        report = session.verify(received=arrived)
        assert not report.verdicts["B"].ok
        claims = {c.claim for c in report.verdicts["B"].complaints()}
        assert "missing-attestation" in claims
        # honest evidence bits mean N1 sees no violation, but a full
        # delivery still verifies clean end to end
        clean = session.verify(received=views)
        assert all(v.ok for v in clean.verdicts.values())

    def test_subset_promise_through_engine(self, keystore):
        spec = minimum_spec(promise=ShortestFromSubset(("N1", "N2")))
        report = VerificationSession(keystore, spec, round=34).run(ROUTES)
        assert report.variant == "graph"
        assert report.ok(), report.verdicts
        # the contracted subset's best is N2 (length 2), and the shorter
        # outside route is irrelevant here; B got the subset minimum
        assert report.transcript.views["B"].exported_length() == 2


class TestCrosscheckParity:
    """Engine vs the raw promise-4 primitives, per chooser."""

    RECIPIENTS = ("B1", "B2", "B3")
    CHOOSERS = [
        ("honest", honest_chooser, False),
        ("discriminating", discriminating_chooser("B1"), True),
        ("withholding", withholding_chooser("B2"), True),
    ]

    def _legacy(self, keystore, spec, routes, round_no, chooser):
        from repro.pvr.commitments import make_attestation

        config = minimum_mod.RoundConfig(
            prover=spec.prover, providers=spec.providers,
            recipient=spec.recipients[0], round=round_no,
            max_length=spec.max_length,
        )
        announcements = minimum_mod.announce(keystore, config, routes)
        accepted = {
            name: ann for name, ann in announcements.items()
            if ann is not None and ann.verify(keystore)
            and 1 <= len(ann.route.as_path) <= spec.max_length
        }
        attestations = {}
        for recipient in spec.recipients:
            winner = chooser(recipient, accepted)
            if winner is None:
                attestations[recipient] = make_attestation(
                    keystore, spec.prover, recipient, round_no, None, None
                )
            else:
                attestations[recipient] = make_attestation(
                    keystore, spec.prover, recipient, round_no,
                    winner.route.exported_by(spec.prover), winner,
                )
        everyone = list(attestations.values())
        return {
            recipient: cross_check(
                keystore, recipient, attestations[recipient], everyone
            )
            for recipient in spec.recipients
        }

    @pytest.mark.parametrize(
        "name, chooser, expect_violation", CHOOSERS,
        ids=[c[0] for c in CHOOSERS],
    )
    def test_identical_verdicts(self, keystore, name, chooser,
                                expect_violation):
        spec = PromiseSpec(
            promise=NoLongerThanOthers(), prover="A", providers=PROVIDERS,
            recipients=self.RECIPIENTS, max_length=MAX_LEN,
        )
        for asn in spec.parties:
            keystore.register(asn)
        legacy_verdicts = self._legacy(keystore, spec, ROUTES, 41, chooser)
        report = VerificationSession(
            keystore, spec, round=41, chooser=chooser
        ).run(ROUTES)
        assert report.variant == "crosscheck"
        assert verdict_signature(report.verdicts) == verdict_signature(
            legacy_verdicts
        )
        assert report.violation_found() == expect_violation


class TestScenarioRegistry:
    def test_catalogue_is_populated(self):
        names = scenarios.list()
        assert "fig1-minimum" in names
        assert "fig2-multiop" in names
        assert "sec32-existential" in names
        assert "promise4-discriminating" in names
        assert names == scenarios.names()

    def test_get_builds_named_scenario(self):
        scenario = scenarios.get("fig1-minimum")
        assert scenario.name == "fig1-minimum"
        assert scenario.description
        assert scenario.spec.prover == "A"

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenarios.get("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenarios.register("fig1-minimum")(lambda: None)

    @pytest.mark.parametrize("name", sorted(scenarios.list()))
    def test_every_builtin_runs_as_expected(self, keystore, name):
        scenario = scenarios.get(name)
        report = scenarios.run(name, keystore)
        flagged = report.violation_found() or bool(report.all_complaints())
        assert flagged == scenario.expect_violation, name
        assert report.adjudication.evidence_ok(), name


class TestLeafPackage:
    @staticmethod
    def loaded(module, above):
        """Modules under ``above`` that a fresh interpreter holds after
        ``import module``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        code = (
            f"import sys, {module}\n"
            f"print([m for m in sys.modules if m.startswith({above!r})])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    def test_importing_pvr_loads_nothing_above_it(self):
        """``repro.pvr`` is a leaf under the audit plane: importing it
        (or the engine, or the scenario registry with its network and
        churn-step builders) in a fresh interpreter loads no module of
        the layers that run rounds on a network."""
        above = ("repro.audit", "repro.obs", "repro.cluster",
                 "repro.serve", "repro.ledger", "repro.journal")
        for module in ("repro.pvr", "repro.pvr.engine",
                       "repro.pvr.scenarios"):
            assert self.loaded(module, above) == "[]", module

    def test_importing_audit_loads_nothing_above_it(self):
        """The audit plane is the next layer up: the serving stack
        builds on it, and no module of ``repro.audit`` reaches up (the
        churn CLI, which reads the workload registry, is
        ``python -m repro.cluster``)."""
        above = ("repro.cluster", "repro.serve", "repro.ledger",
                 "repro.journal")
        assert self.loaded("repro.audit", above) == "[]"
