"""Session-level types for the unified verification engine.

The paper's headline claim is that *one* mechanism — commitments,
evidence and collective verification under an access policy α — covers
every promise, from the existential bit (Section 3.2) through the
minimum operator (Section 3.3) to arbitrary route-flow graphs (Sections
3.5-3.7) and the cross-recipient promise 4.  This module defines the
shared vocabulary that makes that true at the API level:

* :class:`PromiseSpec` — *what* is being verified: a promise template
  from :mod:`repro.promises.spec`, the parties, and the protocol
  parameters.  A spec compiles to a :class:`~repro.rfg.graph.RouteFlowGraph`
  plan (the paper's Section 4 compiler path) and resolves to the protocol
  variant that verifies it;
* :class:`SessionTranscript` — the distributed record of one session:
  announcements, receipts, the signed commitment, and every party's view;
* :class:`SessionReport` — the outcome: per-party verdicts, equivocation
  records, leakage accounting, crypto-cost counters and (optionally) the
  judge's adjudication of all transferable evidence;
* :class:`Adjudication` — the judge's rulings, kept with the report so a
  session's audit trail is a single object.

The engine itself lives in :mod:`repro.pvr.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.net.gossip import EquivocationRecord
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    Promise,
    ShortestFromSubset,
    ShortestRoute,
    WithinKHops,
)
from repro.pvr.evidence import (
    Complaint,
    EquivocationEvidence,
    Evidence,
    Verdict,
)
from repro.pvr.judge import ComplaintRuling, Judge
from repro.pvr.minimum import DEFAULT_MAX_LENGTH, RoundConfig
from repro.pvr.minimum import TOPIC as MINIMUM_TOPIC
from repro.pvr.protocol import GraphRoundConfig
from repro.rfg.graph import RouteFlowGraph

#: The four protocol variants one spec can resolve to.
VARIANT_MINIMUM = "minimum"
VARIANT_EXISTENTIAL = "existential"
VARIANT_GRAPH = "graph"
VARIANT_CROSSCHECK = "crosscheck"

VARIANTS = (
    VARIANT_MINIMUM,
    VARIANT_EXISTENTIAL,
    VARIANT_GRAPH,
    VARIANT_CROSSCHECK,
)


class SessionError(RuntimeError):
    """A lifecycle method was called out of order, or the spec cannot be
    served by the requested protocol variant."""


@dataclass(frozen=True)
class PromiseSpec:
    """The complete, protocol-independent description of one contract.

    ``promise`` is a template from :mod:`repro.promises.spec`; ``prover``
    is the AS that made it, ``providers`` the neighbors feeding it routes
    and ``recipients`` the neighbors owed the output (promise 4 needs at
    least two).  ``variant`` selects the verifying protocol; ``"auto"``
    picks the cheapest variant that covers the promise.  ``plan``
    optionally overrides the compiled route-flow graph with a hand-built
    one (e.g. Figure 2's two-operator graph).
    """

    promise: Promise
    prover: str
    providers: Tuple[str, ...]
    recipients: Tuple[str, ...] = ("B",)
    variant: str = "auto"
    max_length: int = DEFAULT_MAX_LENGTH
    topic: str = MINIMUM_TOPIC
    plan: Optional[RouteFlowGraph] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "providers", tuple(self.providers))
        object.__setattr__(self, "recipients", tuple(self.recipients))
        if not isinstance(self.promise, Promise):
            raise TypeError("promise must be a repro.promises.spec.Promise")
        if not self.providers:
            raise ValueError("need at least one provider")
        if not self.recipients:
            raise ValueError("need at least one recipient")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.variant not in VARIANTS + ("auto",):
            raise ValueError(f"unknown variant {self.variant!r}")
        overlap = set(self.recipients) & set(self.providers)
        if self.prover in self.providers or self.prover in self.recipients:
            raise ValueError("prover cannot be its own neighbor")
        if overlap:
            raise ValueError(f"parties on both sides: {sorted(overlap)}")

    # -- derived parameters --------------------------------------------------

    @property
    def slack(self) -> int:
        """Promise 3's latitude k; zero for exact-shortest promises."""
        return self.promise.k if isinstance(self.promise, WithinKHops) else 0

    @property
    def recipient(self) -> str:
        return self.recipients[0]

    @property
    def parties(self) -> Tuple[str, ...]:
        return (self.prover,) + self.providers + self.recipients

    def resolve_variant(self) -> str:
        """The protocol variant that verifies this promise.

        Explicit ``variant`` wins.  Otherwise: promise 4 (or any
        multi-recipient spec) needs the cross-check; an existential
        promise over the full provider set runs the single-bit protocol;
        shortest-route promises (promises 1-3, or promise 2 over the
        full set) run the minimum protocol; everything else — subset
        promises, hand-built plans — runs the generalized graph protocol.
        """
        if self.variant != "auto":
            self._check_variant(self.variant)
            return self.variant
        if isinstance(self.promise, NoLongerThanOthers) or len(self.recipients) > 1:
            self._check_variant(VARIANT_CROSSCHECK)
            return VARIANT_CROSSCHECK
        if self.plan is not None:
            return VARIANT_GRAPH
        if isinstance(self.promise, ExistentialPromise):
            if set(self.promise.subset) == set(self.providers):
                return VARIANT_EXISTENTIAL
            return VARIANT_GRAPH
        if isinstance(self.promise, (ShortestRoute, WithinKHops)):
            return VARIANT_MINIMUM
        if isinstance(self.promise, ShortestFromSubset):
            if set(self.promise.subset) == set(self.providers):
                return VARIANT_MINIMUM
            return VARIANT_GRAPH
        return VARIANT_GRAPH

    def _check_variant(self, variant: str) -> None:
        if variant == VARIANT_CROSSCHECK:
            if len(self.recipients) < 2:
                raise SessionError("the cross-check needs >= 2 recipients")
        elif len(self.recipients) != 1:
            raise SessionError(
                f"the {variant} protocol serves exactly one recipient"
            )

    def compile_plan(self) -> RouteFlowGraph:
        """The route-flow graph implementing this promise (Section 4's
        compiler path); a hand-built ``plan`` short-circuits compilation."""
        if self.plan is not None:
            return self.plan
        from repro.rfg.compiler import compile_promise

        return compile_promise(self.promise, self.providers,
                               recipient=self.recipient)

    def round_config(self, round: int) -> RoundConfig:
        """The single-recipient protocol parameters for one round."""
        return RoundConfig(
            prover=self.prover,
            providers=self.providers,
            recipient=self.recipient,
            round=round,
            max_length=self.max_length,
            topic=self.topic,
            slack=self.slack,
        )

    def graph_config(self, round: int) -> GraphRoundConfig:
        """The generalized-protocol parameters for one round."""
        return GraphRoundConfig(
            prover=self.prover, round=round, max_length=self.max_length
        )


@dataclass(frozen=True)
class SessionTranscript:
    """The complete distributed record of one verification session.

    ``announcements`` is keyed by provider name (or input-variable name
    for the graph variant); ``views`` maps each verifying party to what
    the prover sent it — a ``ProviderView``/``RecipientView`` for the
    single-operator protocols, an ``ExportAttestation`` for the
    cross-check, a ``(announcement, receipt)`` pair for graph input
    owners.  ``commitment`` is the round's signed binding statement (the
    commitment-vector statement or the Merkle root), and ``detail`` the
    variant-native transcript for code that needs the raw protocol
    objects.
    """

    variant: str
    round: int
    announcements: Mapping[str, object]
    receipts: Mapping[str, object]
    commitment: object
    views: Mapping[str, object]
    detail: object = None


@dataclass(frozen=True)
class CryptoCounters:
    """Keystore operation deltas attributable to one session."""

    signatures: int = 0
    verifications: int = 0


@dataclass(frozen=True)
class Adjudication:
    """The judge's rulings over a report's full evidence trail."""

    evidence_rulings: Tuple[Tuple[Evidence, bool], ...]
    complaint_rulings: Tuple[Tuple[Complaint, ComplaintRuling], ...]

    def evidence_ok(self) -> bool:
        """Every piece of transferable evidence convinced the judge."""
        return all(valid for _, valid in self.evidence_rulings)

    def guilty(self) -> Tuple[Evidence, ...]:
        return tuple(e for e, valid in self.evidence_rulings if valid)

    def upheld_complaints(self) -> Tuple[Complaint, ...]:
        return tuple(
            c for c, ruling in self.complaint_rulings if ruling.upheld
        )


@dataclass
class SessionReport:
    """Everything observable after one session, whatever the variant."""

    spec: PromiseSpec
    variant: str
    round: int
    verdicts: Dict[str, Verdict]
    equivocations: Tuple[EquivocationRecord, ...]
    #: ``None`` on the audit plane's recorded events, which keep the
    #: verdicts and evidence only (``Monitor.replay`` re-derives it)
    transcript: Optional[SessionTranscript]
    honest_chosen_length: Optional[int]
    confidentiality_ok: Optional[bool]
    crypto: CryptoCounters
    adjudication: Optional[Adjudication] = None

    def receipt(self) -> "SessionReport":
        """This report without its transcript: what the audit plane
        records of a round.  The verdicts, equivocations and evidence —
        everything the judge checks — stay; the views go, and
        ``Monitor.replay`` re-derives them."""
        return replace(self, transcript=None)

    # -- aggregates ---------------------------------------------------------

    def ok(self) -> bool:
        return not self.violation_found() and not self.all_complaints()

    def violation_found(self) -> bool:
        return bool(self.equivocations) or any(
            not v.ok for v in self.verdicts.values()
        )

    def detecting_parties(self) -> Tuple[str, ...]:
        return tuple(
            sorted(name for name, v in self.verdicts.items() if not v.ok)
        )

    def all_evidence(self) -> Tuple[Evidence, ...]:
        found: List[Evidence] = []
        for verdict in self.verdicts.values():
            found.extend(verdict.evidence())
        found.extend(EquivocationEvidence(record=r) for r in self.equivocations)
        return tuple(found)

    def all_complaints(self) -> Tuple[Complaint, ...]:
        found: List[Complaint] = []
        for verdict in self.verdicts.values():
            found.extend(verdict.complaints())
        return tuple(found)

    # -- the four properties, report-level ----------------------------------

    @property
    def accuracy_ok(self) -> bool:
        """No correct AS flagged anything (the honest-run property)."""
        return self.ok()

    def detection_ok(self, deviated: bool) -> bool:
        """A deviation was flagged somewhere iff one occurred."""
        return self.violation_found() == deviated

    def adjudicate(self, judge: Judge) -> Adjudication:
        """Run every evidence object and complaint past the judge.

        Complaints are resolved *unanswered* — the accused prover is not
        consulted — which models the worst case for the accused; an
        honest prover exonerates itself by producing the withheld message
        (see :meth:`repro.pvr.judge.Judge.resolve_complaint`).
        """
        evidence_rulings = tuple(
            (item, judge.validate(item)) for item in self.all_evidence()
        )
        complaint_rulings = tuple(
            (item, judge.resolve_complaint(item, None))
            for item in self.all_complaints()
        )
        self.adjudication = Adjudication(
            evidence_rulings=evidence_rulings,
            complaint_rulings=complaint_rulings,
        )
        return self.adjudication
