"""The unified verification engine: one lifecycle over all four PVR
protocol variants.

:class:`VerificationSession` drives a single promise-verification round
through the paper's five phases —

    announce → commit → disclose → verify → adjudicate

— parameterized by a :class:`repro.pvr.session.PromiseSpec`.  The spec
compiles to a route-flow-graph plan and resolves to one of four protocol
*drivers*:

* ``minimum`` — the Section 3.3 bit-vector protocol
  (:mod:`repro.pvr.minimum`), covering promises 1-3;
* ``existential`` — the Section 3.2 single-bit protocol
  (:mod:`repro.pvr.existential`);
* ``graph`` — the generalized Sections 3.5-3.7 protocol
  (:mod:`repro.pvr.protocol` + :mod:`repro.pvr.navigation`) over the
  compiled plan, for subset promises, filters and multi-operator graphs;
* ``crosscheck`` — promise 4's cross-recipient attestation gossip
  (:mod:`repro.pvr.crosscheck`).

Whatever the variant, the session emits the same
:class:`~repro.pvr.session.SessionTranscript` and
:class:`~repro.pvr.session.SessionReport`, so callers — examples,
benchmarks, the audit plane, the scenario registry — never branch on
the protocol again.

Lifecycle methods may be driven one at a time (the audit plane's wire
round interleaves them with transport) or all at once via :meth:`run`.
``verify`` accepts the views that actually *arrived* so dropped or
tampered messages surface in the verdicts, and may be re-run (e.g. with
a different set of arrived views) without repeating the earlier phases.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.bgp.route import Route
from repro.crypto.keystore import KeyStore
from repro.net.gossip import GossipLayer, exchange
from repro.pvr import existential as existential_mod
from repro.pvr import leakage
from repro.pvr import minimum as minimum_mod
from repro.pvr.access import paper_alpha
from repro.pvr.announcements import SignedAnnouncement, make_announcement
from repro.pvr.batching import BatchingProver
from repro.pvr.commitments import ExportAttestation, make_attestation
from repro.pvr.crosscheck import ExportChooser, cross_check, honest_chooser
from repro.pvr.evidence import Complaint, Verdict, Violation
from repro.pvr.judge import Judge
from repro.pvr.minimum import (
    HonestProver,
    ProviderView,
    RecipientView,
    RoundConfig,
)
from repro.pvr.navigation import (
    Navigator,
    OperatorSkeleton,
    owner_check_operators,
    verify_as_input_owner,
    verify_as_output_recipient,
)
from repro.pvr.protocol import GraphProver, GraphRoundConfig
from repro.pvr.session import (
    VARIANT_CROSSCHECK,
    VARIANT_EXISTENTIAL,
    VARIANT_GRAPH,
    VARIANT_MINIMUM,
    Adjudication,
    CryptoCounters,
    PromiseSpec,
    SessionError,
    SessionReport,
    SessionTranscript,
)
from repro.rfg.graph import RouteFlowGraph

Routes = Mapping[str, Optional[Route]]

# lifecycle states, in order
CREATED = "created"
ANNOUNCED = "announced"
COMMITTED = "committed"
DISCLOSED = "disclosed"
VERIFIED = "verified"

_NEXT = {
    "announce": (CREATED,),
    "commit": (ANNOUNCED,),
    "disclose": (COMMITTED,),
    "verify": (DISCLOSED, VERIFIED),
    "adjudicate": (VERIFIED,),
}


def derive_skeleton(
    plan: RouteFlowGraph, output: str
) -> Tuple[OperatorSkeleton, ...]:
    """The operator chain a recipient expects behind ``output``,
    outermost first, walking each operator's first input — the walk
    :func:`repro.pvr.navigation.verify_as_output_recipient` performs."""
    skeleton = []
    current = output
    while True:
        producers = plan.predecessors(current)
        if not producers:
            break
        op = plan.operator(producers[0])
        skeleton.append(
            OperatorSkeleton(name=op.name, type_tag=op.operator.type_tag)
        )
        if not op.inputs:
            break
        current = op.inputs[0]
    return tuple(skeleton)


def _honest_minimum_length(routes: Routes, max_length: int) -> Optional[int]:
    lengths = [
        len(route.as_path)
        for route in routes.values()
        if route is not None and 1 <= len(route.as_path) <= max_length
    ]
    return min(lengths) if lengths else None


class VerificationSession:
    """One promise, one round, one auditable lifecycle.

    Arguments beyond ``spec`` tune the prover side without changing the
    API: ``prover`` injects a (possibly Byzantine) prover — an
    :class:`~repro.pvr.minimum.HonestProver` subclass for the
    single-operator variants, a :class:`~repro.pvr.protocol.GraphProver`
    factory ``(keystore, plan, alpha, config) -> GraphProver`` for the
    graph variant; ``chooser`` is the cross-check's per-recipient export
    policy; ``batching=True`` swaps in the Section 3.8
    :class:`~repro.pvr.batching.BatchingProver`; ``gossip=False`` is the
    D4 ablation.  The graph variant runs under the paper's access
    policy α (:func:`repro.pvr.access.paper_alpha`).
    """

    def __init__(
        self,
        keystore: KeyStore,
        spec: PromiseSpec,
        *,
        round: int = 1,
        prover: object = None,
        chooser: Optional[ExportChooser] = None,
        batching: bool = False,
        gossip: bool = True,
        random_bytes: Callable[[int], bytes] | None = None,
    ) -> None:
        self.keystore = keystore
        self.spec = spec
        self.round = round
        self.gossip = gossip
        self.batching = batching
        self.chooser = chooser
        self.alpha = None  # the graph driver sets it: the paper's α over the plan
        self.random_bytes = random_bytes
        self.variant = spec.resolve_variant()
        self.plan = spec.compile_plan()
        self.prover = prover  # resolved to an instance at commit time
        self.state = CREATED
        self.commitment: object = None
        self.report: Optional[SessionReport] = None
        self._crypto = CryptoCounters()
        for asn in spec.parties:
            keystore.register(asn)
        driver_cls = {
            VARIANT_MINIMUM: _MinimumDriver,
            VARIANT_EXISTENTIAL: _ExistentialDriver,
            VARIANT_GRAPH: _GraphDriver,
            VARIANT_CROSSCHECK: _CrossCheckDriver,
        }[self.variant]
        self._driver = driver_cls(self)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def config(self):
        """The variant-native round parameters."""
        return self._driver.config

    def _advance(self, phase: str, to_state: str) -> None:
        if self.state not in _NEXT[phase]:
            raise SessionError(
                f"cannot {phase} from state {self.state!r} "
                f"(expected {' or '.join(_NEXT[phase])})"
            )
        self.state = to_state

    def _counted(self, fn):
        sign0 = self.keystore.sign_count
        verify0 = self.keystore.verify_count
        try:
            return fn()
        finally:
            self._crypto = CryptoCounters(
                signatures=self._crypto.signatures
                + self.keystore.sign_count - sign0,
                verifications=self._crypto.verifications
                + self.keystore.verify_count - verify0,
            )

    # -- lifecycle -----------------------------------------------------------

    def announce(self, routes: Routes) -> Dict[str, object]:
        """Phase 1: each provider signs its (optional) route toward the
        prover.  Returns the announcements (keyed by provider, or by
        input-variable name for the graph variant)."""
        self._advance("announce", ANNOUNCED)
        return self._counted(lambda: self._driver.announce(routes))

    def commit(self) -> object:
        """Phase 2: the prover accepts announcements, evaluates its
        decision, and signs its binding commitment.  Returns the signed
        statement (commitment vector / Merkle root; the cross-check's
        binding objects are the attestations themselves, so it returns
        None)."""
        self._advance("commit", COMMITTED)
        self.commitment = self._counted(self._driver.commit)
        return self.commitment

    def disclose(self) -> Dict[str, object]:
        """Phase 3: the prover builds each party's view — receipts,
        disclosures, the export attestation.  Returns ``party -> view``,
        ready to be put on the wire."""
        self._advance("disclose", DISCLOSED)
        return self._counted(self._driver.disclose)

    def verify(
        self, received: Optional[Mapping[str, object]] = None
    ) -> SessionReport:
        """Phase 4: every party runs its local checks; commitment
        statements are gossiped and cross-checked.

        ``received`` substitutes the views that actually arrived (the
        wire round's transport may have dropped or tampered some);
        parties with no view verify against an empty one.
        """
        self._advance("verify", VERIFIED)
        report = self._counted(lambda: self._driver.verify(received))
        self.report = report
        return report

    def adjudicate(self, judge: Optional[Judge] = None) -> Adjudication:
        """Phase 5: a third-party judge rules on all transferable
        evidence and unanswered complaints; the rulings are stored on the
        report."""
        self._advance("adjudicate", VERIFIED)
        if judge is None:
            judge = Judge(self.keystore)
        return self._counted(lambda: self.report.adjudicate(judge))

    def run(self, routes: Routes, judge: Optional[Judge] = None) -> SessionReport:
        """The whole lifecycle in one call; pass ``judge`` to adjudicate
        the outcome as well."""
        self.announce(routes)
        self.commit()
        self.disclose()
        report = self.verify()
        if judge is not None:
            self.adjudicate(judge)
        return report

    # -- shared helpers for drivers ------------------------------------------

    def _make_report(
        self,
        verdicts: Dict[str, Verdict],
        equivocations: Tuple,
        transcript: SessionTranscript,
        honest_chosen_length: Optional[int],
        confidentiality_ok: Optional[bool],
    ) -> SessionReport:
        return SessionReport(
            spec=self.spec,
            variant=self.variant,
            round=self.round,
            verdicts=verdicts,
            equivocations=equivocations,
            transcript=transcript,
            honest_chosen_length=honest_chosen_length,
            confidentiality_ok=confidentiality_ok,
            crypto=self._crypto,
        )


# -- drivers -------------------------------------------------------------------


def _missing_attestation(session: VerificationSession, party: str) -> Verdict:
    """The verdict of a recipient whose export attestation never arrived:
    a complaint against the prover, nothing transferable (the prover may
    be honest and the channel lossy)."""
    prover = session.spec.prover
    return Verdict(
        verifier=party,
        violations=(
            Violation(
                kind="missing-attestation",
                accused=prover,
                complaint=Complaint(
                    accuser=party,
                    accused=prover,
                    round=session.round,
                    claim="missing-attestation",
                ),
            ),
        ),
    )


class _SingleRecipientDriver:
    """Shared lifecycle for the two single-operator protocols (minimum
    and existential): both announce with the same primitive, distribute
    per-provider views plus one recipient view, gossip the commitment
    statement, and differ only in their prover and verify functions."""

    def __init__(self, session: VerificationSession) -> None:
        self.s = session
        self.config: RoundConfig = session.spec.round_config(session.round)
        self.routes: Dict[str, Optional[Route]] = {}
        self.announcements: Dict[str, Optional[SignedAnnouncement]] = {}
        self.transcript = None

    # variant-specific hooks ------------------------------------------------

    #: ``fn(keystore, config, provider, announcement, view) -> Verdict``
    _provider_verify_fn: Callable = None

    def _resolve_prover(self):
        raise NotImplementedError

    def _verify_recipient(self, view) -> Verdict:
        raise NotImplementedError

    def _empty_provider_view(self):
        raise NotImplementedError

    def _empty_recipient_view(self):
        raise NotImplementedError

    def _confidentiality_ok(self) -> Optional[bool]:
        return None

    # the shared lifecycle --------------------------------------------------

    def announce(self, routes: Routes) -> Dict[str, object]:
        self.routes = dict(routes)
        self.announcements = minimum_mod.announce(
            self.s.keystore, self.config, routes
        )
        return self.announcements

    def commit(self) -> object:
        prover = self._resolve_prover()
        self.transcript = prover.run(self.config, self.announcements)
        vector = self.transcript.recipient_view.vector
        if vector is None:
            for view in self.transcript.provider_views.values():
                if view.vector is not None:
                    vector = view.vector
                    break
        return vector.statement if vector is not None else None

    def disclose(self) -> Dict[str, object]:
        views: Dict[str, object] = {
            provider: self.transcript.provider_views[provider]
            for provider in self.config.providers
        }
        views[self.config.recipient] = self.transcript.recipient_view
        return views

    def verify(self, received=None) -> SessionReport:
        config = self.config
        used = dict(received) if received is not None else self.disclose()
        verdicts: Dict[str, Verdict] = {}
        for provider in config.providers:
            verdicts[provider] = self._provider_verify_fn(
                self.s.keystore,
                config,
                provider,
                self.announcements.get(provider),
                used.get(provider, self._empty_provider_view()),
            )
        verdicts[config.recipient] = self._verify_recipient(
            used.get(config.recipient, self._empty_recipient_view())
        )

        equivocations: Tuple = ()
        if self.s.gossip:
            layers = {
                name: GossipLayer(name, self.s.keystore)
                for name in config.providers + (config.recipient,)
            }
            for name, layer in layers.items():
                view = used.get(name)
                vector = getattr(view, "vector", None)
                if vector is not None:
                    layer.observe(vector.statement)
            equivocations = tuple(exchange(layers.values()))

        transcript = SessionTranscript(
            variant=self.s.variant,
            round=self.s.round,
            announcements=dict(self.announcements),
            receipts={
                p: getattr(v, "receipt", None) for p, v in used.items()
            },
            commitment=self.s.commitment,
            views=used,
            detail=self.transcript,
        )
        return self.s._make_report(
            verdicts,
            equivocations,
            transcript,
            _honest_minimum_length(self.routes, config.max_length),
            self._confidentiality_ok(),
        )


class _MinimumDriver(_SingleRecipientDriver):
    """Section 3.3's bit-vector protocol behind the unified lifecycle."""

    _provider_verify_fn = staticmethod(minimum_mod.verify_as_provider)

    def _resolve_prover(self) -> HonestProver:
        if self.s.prover is None:
            cls = BatchingProver if self.s.batching else HonestProver
            self.s.prover = cls(self.s.keystore, self.s.random_bytes)
        return self.s.prover

    def _verify_recipient(self, view) -> Verdict:
        return minimum_mod.verify_as_recipient(
            self.s.keystore, self.config, view
        )

    def _empty_provider_view(self):
        return ProviderView()

    def _empty_recipient_view(self):
        return RecipientView()

    def _confidentiality_ok(self) -> bool:
        """Section 2.3's confidentiality property, measured on what the
        prover actually sent (leakage is a prover-side failure, so it is
        judged on the transcript, not the possibly-lossy wire)."""
        config = self.config
        for provider in config.providers:
            view = self.transcript.provider_views[provider]
            learned = leakage.facts_learned_by_provider(view)
            route = self.routes.get(provider)
            own_length = len(route.as_path) if route is not None else None
            baseline = leakage.baseline_facts_provider(config, own_length)
            if leakage.confidentiality_violations(
                learned, baseline, config.max_length
            ):
                return False
        recipient_learned = leakage.facts_learned_by_recipient(
            self.transcript.recipient_view
        )
        recipient_baseline = leakage.baseline_facts_recipient(
            config, _honest_minimum_length(self.routes, config.max_length)
        )
        return not leakage.confidentiality_violations(
            recipient_learned, recipient_baseline, config.max_length
        )


class _ExistentialDriver(_SingleRecipientDriver):
    """Section 3.2's single-bit protocol behind the unified lifecycle."""

    _provider_verify_fn = staticmethod(existential_mod.verify_as_provider)

    def _resolve_prover(self):
        if self.s.prover is None:
            self.s.prover = existential_mod.ExistentialProver(
                self.s.keystore, self.s.random_bytes
            )
        return self.s.prover

    def _verify_recipient(self, view) -> Verdict:
        return existential_mod.verify_as_recipient(
            self.s.keystore, self.config, view
        )

    def _empty_provider_view(self):
        return existential_mod.ExistentialProviderView()

    def _empty_recipient_view(self):
        return existential_mod.ExistentialRecipientView()


class _GraphDriver:
    """The generalized Sections 3.5-3.7 protocol over the compiled plan."""

    def __init__(self, session: VerificationSession) -> None:
        self.s = session
        self.config: GraphRoundConfig = session.spec.graph_config(
            session.round
        )
        self.plan = session.plan
        session.alpha = paper_alpha(self.plan)
        self.routes: Dict[str, Optional[Route]] = {}
        self.announcements: Dict[str, Optional[SignedAnnouncement]] = {}
        self.receipts: Dict[str, object] = {}
        self.root_statement = None
        self.attestations: Dict[str, ExportAttestation] = {}

    def announce(self, routes: Routes) -> Dict[str, object]:
        """Announcements are built per input *variable* from the route
        its owning party provided this round."""
        self.routes = dict(routes)
        self.announcements = {}
        for vertex in self.plan.inputs():
            route = routes.get(vertex.party)
            if route is None:
                self.announcements[vertex.name] = None
                continue
            self.announcements[vertex.name] = make_announcement(
                self.s.keystore,
                route,
                vertex.party,
                self.s.spec.prover,
                self.s.round,
            )
        return self.announcements

    def commit(self) -> object:
        if self.s.prover is None:
            self.s.prover = GraphProver(
                self.s.keystore,
                self.plan,
                self.s.alpha,
                self.config,
                self.s.random_bytes,
            )
        elif callable(self.s.prover) and not isinstance(
            self.s.prover, GraphProver
        ):
            self.s.prover = self.s.prover(
                self.s.keystore, self.plan, self.s.alpha, self.config
            )
        self.receipts = self.s.prover.receive(self.announcements)
        self.root_statement = self.s.prover.commit_round()
        return self.root_statement

    def disclose(self) -> Dict[str, object]:
        """Recipients get their export attestation; input owners get
        their ``(announcement, receipt)`` pair (the rest of their view is
        pulled interactively through navigation)."""
        views: Dict[str, object] = {}
        for vertex in self.plan.outputs():
            attestation = self.s.prover.export_attestation(vertex.name)
            self.attestations[vertex.name] = attestation
            views[vertex.party] = attestation
        for vertex in self.plan.inputs():
            views[vertex.party] = (
                self.announcements.get(vertex.name),
                self.receipts.get(vertex.name),
            )
        return views

    def verify(self, received=None) -> SessionReport:
        """``received`` substitutes what actually arrived at each party:
        an input owner's ``(announcement, receipt)`` pair (its own
        announcement plus the receipt the wire delivered) and a
        recipient's ``ExportAttestation``.  A party missing from
        ``received`` verifies with nothing in hand — a dropped
        attestation or receipt must surface in the verdicts."""
        keystore = self.s.keystore
        verdicts: Dict[str, Verdict] = {}

        for vertex in self.plan.inputs():
            party = vertex.party
            announcement = self.announcements.get(vertex.name)
            receipt = self.receipts.get(vertex.name)
            if received is not None:
                arrived = received.get(party)
                if isinstance(arrived, tuple) and len(arrived) == 2:
                    _, receipt = arrived
                else:
                    receipt = None
            if announcement is None:
                verdicts[party] = Verdict(verifier=party)
                continue
            navigator = Navigator(
                keystore, party, self.s.prover, self.root_statement
            )
            check_ops = owner_check_operators(
                navigator, vertex.name, announcement.route
            )
            verdicts[party] = verify_as_input_owner(
                navigator,
                self.config,
                vertex.name,
                announcement,
                receipt,
                check_operators=check_ops,
            )

        for vertex in self.plan.outputs():
            party = vertex.party
            attestation = self.attestations[vertex.name]
            if received is not None:
                attestation = received.get(party)
            if attestation is None:
                verdicts[party] = _missing_attestation(self.s, party)
                continue
            navigator = Navigator(
                keystore, party, self.s.prover, self.root_statement
            )
            verdicts[party] = verify_as_output_recipient(
                navigator,
                self.config,
                vertex.name,
                attestation,
                derive_skeleton(self.plan, vertex.name),
                known_providers=self.s.spec.providers,
            )

        equivocations: Tuple = ()
        if self.s.gossip:
            layers = {
                name: GossipLayer(name, keystore)
                for name in self.s.spec.providers + self.s.spec.recipients
            }
            for layer in layers.values():
                layer.observe(self.root_statement)
            equivocations = tuple(exchange(layers.values()))

        transcript = SessionTranscript(
            variant=self.s.variant,
            round=self.s.round,
            announcements=dict(self.announcements),
            receipts=dict(self.receipts),
            commitment=self.root_statement,
            views={
                vertex.party: self.attestations[vertex.name]
                for vertex in self.plan.outputs()
            },
            detail=self.s.prover,
        )
        return self.s._make_report(
            verdicts,
            equivocations,
            transcript,
            _honest_minimum_length(self.routes, self.config.max_length),
            None,
        )


class _CrossCheckDriver:
    """Promise 4: multi-recipient attestations, gossiped and compared."""

    def __init__(self, session: VerificationSession) -> None:
        self.s = session
        spec = session.spec
        # announcements reuse the single-recipient round parameters
        self.config: RoundConfig = RoundConfig(
            prover=spec.prover,
            providers=spec.providers,
            recipient=spec.recipients[0],
            round=session.round,
            max_length=spec.max_length,
            topic=spec.topic,
        )
        self.routes: Dict[str, Optional[Route]] = {}
        self.announcements: Dict[str, Optional[SignedAnnouncement]] = {}
        self.attestations: Dict[str, ExportAttestation] = {}

    def announce(self, routes: Routes) -> Dict[str, object]:
        self.routes = dict(routes)
        self.announcements = minimum_mod.announce(
            self.s.keystore, self.config, routes
        )
        return self.announcements

    def commit(self) -> object:
        """The binding objects of this variant are the signed export
        attestations themselves — one per recipient, as chosen by the
        export policy."""
        keystore = self.s.keystore
        spec = self.s.spec
        chooser = self.s.chooser or honest_chooser
        accepted = {
            name: ann
            for name, ann in self.announcements.items()
            if ann is not None
            and ann.verify(keystore)
            and 1 <= len(ann.route.as_path) <= spec.max_length
        }
        for recipient in spec.recipients:
            winner = chooser(recipient, accepted)
            if winner is None:
                self.attestations[recipient] = make_attestation(
                    keystore, spec.prover, recipient, self.s.round, None, None
                )
            else:
                self.attestations[recipient] = make_attestation(
                    keystore,
                    spec.prover,
                    recipient,
                    self.s.round,
                    winner.route.exported_by(spec.prover),
                    winner,
                )
        return None

    def disclose(self) -> Dict[str, object]:
        return dict(self.attestations)

    def verify(self, received=None) -> SessionReport:
        """A recipient whose attestation did not arrive has nothing to
        compare: it complains (``missing-attestation``) instead of
        passing silently — a dropped view must surface in the verdicts."""
        keystore = self.s.keystore
        spec = self.s.spec
        used = dict(received) if received is not None else dict(
            self.attestations
        )
        everyone = list(used.values())
        verdicts: Dict[str, Verdict] = {
            recipient: cross_check(
                keystore, recipient, used[recipient], everyone
            )
            if recipient in used
            else _missing_attestation(self.s, recipient)
            for recipient in spec.recipients
        }
        transcript = SessionTranscript(
            variant=self.s.variant,
            round=self.s.round,
            announcements=dict(self.announcements),
            receipts={},
            commitment=None,
            views=used,
            detail=dict(self.attestations),
        )
        return self.s._make_report(
            verdicts,
            (),
            transcript,
            _honest_minimum_length(self.routes, spec.max_length),
            None,
        )
