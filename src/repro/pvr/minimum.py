"""Example #2: PVR verification of the minimum operator (Section 3.3).

The scenario of Figure 1: A is connected to providers N1..Nk and
recipient B, and has promised B to export the shortest of the routes
r1..rk.  One protocol *round* covers one decision (a change in A's input
set):

1. each Ni optionally sends A a signed announcement; A answers with a
   signed receipt;
2. A computes the monotone bit vector ``b_1..b_L`` (``b_i = 1`` iff some
   input has length ≤ i), commits to every bit, and signs the commitment
   vector (the neighbors gossip this statement);
3. A reveals to each providing Ni the opening of ``b_|ri|`` (signed), and
   to B: the export attestation (chosen route + provenance, or an
   explicit "nothing exported") plus the openings of *all* bits;
4. each neighbor runs its local checks (:func:`verify_as_provider`,
   :func:`verify_as_recipient`), and the gossip layer cross-checks the
   commitment statements.

The checks exactly cover the paper's three conditions — (1) exported ⇒
provided and signed, (2) provided ⇒ exported, (3) exported is no longer
than any provided — while revealing to each party only what plain BGP
plus the promise already implies (measured in :mod:`repro.pvr.leakage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.bgp.route import Route
from repro.crypto.keystore import KeyStore
from repro.pvr.announcements import (
    Receipt,
    SignedAnnouncement,
    make_announcement,
    make_receipt,
)
from repro.pvr.commitments import (
    BitVectorOpenings,
    CommittedBitVector,
    ExportAttestation,
    SignedDisclosure,
    commit_bits,
    compute_length_bits,
    make_attestation,
    make_disclosure,
)
from repro.pvr.evidence import (
    BadOpeningEvidence,
    BadProvenanceEvidence,
    Complaint,
    FalseBitEvidence,
    MonotonicityEvidence,
    PhantomExportEvidence,
    ShorterAvailableEvidence,
    SuppressionEvidence,
    Verdict,
    Violation,
)

DEFAULT_MAX_LENGTH = 16
TOPIC = "pvr-min"


@dataclass(frozen=True)
class RoundConfig:
    """The fixed, publicly-known parameters of a verification round.

    ``slack`` encodes promise 3 of Section 2 ("a route no more than k
    hops longer than my best route"): the recipient tolerates an export
    up to ``slack`` hops above the committed minimum.  ``slack = 0`` is
    promise 1/2 (exact shortest), the default.  The slack is part of the
    publicly-known contract, so it appears in evidence and the judge
    checks against it.
    """

    prover: str
    providers: Tuple[str, ...]
    recipient: str
    round: int
    max_length: int = DEFAULT_MAX_LENGTH
    topic: str = TOPIC
    slack: int = 0

    def __post_init__(self) -> None:
        if not self.providers:
            raise ValueError("need at least one provider")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.slack < 0:
            raise ValueError("slack must be non-negative")
        if self.prover in self.providers or self.prover == self.recipient:
            raise ValueError("prover cannot be its own neighbor")


@dataclass(frozen=True)
class ProviderView:
    """Everything A sends to one provider Ni in a round.

    ``extra_disclosures`` is empty in the honest protocol; a sloppy or
    malicious prover may over-disclose through it, which the leakage
    checker (not the violation verifiers) flags.
    """

    receipt: Optional[Receipt] = None
    vector: Optional[CommittedBitVector] = None
    disclosure: Optional[SignedDisclosure] = None
    extra_disclosures: Tuple[SignedDisclosure, ...] = ()


@dataclass(frozen=True)
class RecipientView:
    """Everything A sends to the recipient B in a round."""

    vector: Optional[CommittedBitVector] = None
    attestation: Optional[ExportAttestation] = None
    disclosures: Tuple[SignedDisclosure, ...] = ()


@dataclass(frozen=True)
class RoundTranscript:
    """The complete record of one round, as distributed across parties."""

    config: RoundConfig
    announcements: Mapping[str, Optional[SignedAnnouncement]]
    provider_views: Mapping[str, ProviderView]
    recipient_view: RecipientView


def announce(
    keystore: KeyStore,
    config: RoundConfig,
    routes: Mapping[str, Optional[Route]],
) -> Dict[str, Optional[SignedAnnouncement]]:
    """Each provider signs its (optional) route toward the prover."""
    announcements: Dict[str, Optional[SignedAnnouncement]] = {}
    for provider in config.providers:
        route = routes.get(provider)
        if route is None:
            announcements[provider] = None
        else:
            announcements[provider] = make_announcement(
                keystore, route, provider, config.prover, config.round
            )
    return announcements


class HonestProver:
    """A's honest behaviour for one minimum-protocol round.

    The fine-grained methods (``compute_bits``, ``choose_winner``,
    ``build_provider_view`` …) are override points for the adversary
    library — a Byzantine prover is an ``HonestProver`` subclass that
    deviates in exactly one documented way.

    The prover signs and verifies through ``keystore``; a
    :class:`~repro.crypto.batch.RoundSigner` in its place makes every
    signature of the round a leaf under one root (Section 3.8).
    """

    def __init__(
        self,
        keystore: KeyStore,
        random_bytes: Callable[[int], bytes] | None = None,
    ) -> None:
        self.keystore = keystore
        self.random_bytes = random_bytes

    # -- decision-relevant inputs ------------------------------------------

    def accept_announcements(
        self, config: RoundConfig, announcements: Mapping[str, Optional[SignedAnnouncement]]
    ) -> Dict[str, SignedAnnouncement]:
        """Validate and keep announcements that are well-formed for this
        round; malformed ones are treated as absent."""
        accepted: Dict[str, SignedAnnouncement] = {}
        for provider in config.providers:
            ann = announcements.get(provider)
            if ann is None:
                continue
            if ann.origin != provider or ann.recipient != config.prover:
                continue
            if ann.round != config.round:
                continue
            if not 1 <= len(ann.route.as_path) <= config.max_length:
                continue
            if not ann.verify(self.keystore):
                continue
            accepted[provider] = ann
        return accepted

    # -- override points ------------------------------------------------------

    def compute_bits(
        self, config: RoundConfig, accepted: Mapping[str, SignedAnnouncement]
    ) -> Tuple[int, ...]:
        lengths = [len(a.route.as_path) for a in accepted.values()]
        return compute_length_bits(lengths, config.max_length)

    def choose_winner(
        self, config: RoundConfig, accepted: Mapping[str, SignedAnnouncement]
    ) -> Optional[SignedAnnouncement]:
        """The shortest announcement; ties break on provider name."""
        if not accepted:
            return None
        return min(
            accepted.values(),
            key=lambda a: (len(a.route.as_path), a.origin),
        )

    def issue_receipt(
        self, config: RoundConfig, announcement: SignedAnnouncement
    ) -> Optional[Receipt]:
        return make_receipt(self.keystore, config.prover, announcement)

    def build_provider_view(
        self,
        config: RoundConfig,
        provider: str,
        announcement: Optional[SignedAnnouncement],
        receipt: Optional[Receipt],
        vector: CommittedBitVector,
        openings: BitVectorOpenings,
    ) -> ProviderView:
        if announcement is None:
            # a silent provider still hears the commitment via gossip but
            # receives no disclosure (it is owed nothing this round)
            return ProviderView(receipt=None, vector=vector, disclosure=None)
        index = len(announcement.route.as_path)
        disclosure = make_disclosure(
            self.keystore,
            config.prover,
            config.topic,
            config.round,
            index,
            openings.opening(index),
        )
        return ProviderView(receipt=receipt, vector=vector, disclosure=disclosure)

    def build_recipient_view(
        self,
        config: RoundConfig,
        winner: Optional[SignedAnnouncement],
        vector: CommittedBitVector,
        openings: BitVectorOpenings,
    ) -> RecipientView:
        attestation = self._attest(config, winner)
        disclosures = tuple(
            make_disclosure(
                self.keystore, config.prover, config.topic, config.round,
                index, openings.opening(index),
            )
            for index in range(1, config.max_length + 1)
        )
        return RecipientView(
            vector=vector, attestation=attestation, disclosures=disclosures
        )

    # -- the round ---------------------------------------------------------------

    def run(
        self,
        config: RoundConfig,
        announcements: Mapping[str, Optional[SignedAnnouncement]],
    ) -> RoundTranscript:
        accepted = self.accept_announcements(config, announcements)
        bits = self.compute_bits(config, accepted)
        vector, openings = commit_bits(
            self.keystore, config.prover, config.topic, config.round, bits,
            self.random_bytes,
        )
        winner = self.choose_winner(config, accepted)
        receipts = {
            provider: self.issue_receipt(config, ann)
            for provider, ann in accepted.items()
        }
        provider_views = {
            provider: self.build_provider_view(
                config,
                provider,
                accepted.get(provider),
                receipts.get(provider),
                vector,
                openings,
            )
            for provider in config.providers
        }
        recipient_view = self.build_recipient_view(
            config, winner, vector, openings
        )
        return RoundTranscript(
            config=config,
            announcements=dict(announcements),
            provider_views=provider_views,
            recipient_view=recipient_view,
        )

    def _attest(
        self, config: RoundConfig, winner: Optional[SignedAnnouncement]
    ) -> ExportAttestation:
        """The signed export attestation for the round's chosen route."""
        if winner is None:
            return make_attestation(
                self.keystore, config.prover, config.recipient, config.round,
                None, None,
            )
        return make_attestation(
            self.keystore, config.prover, config.recipient, config.round,
            winner.route.exported_by(config.prover), winner,
        )


# -- verifier side --------------------------------------------------------------


def verify_as_provider(
    keystore: KeyStore,
    config: RoundConfig,
    provider: str,
    announcement: Optional[SignedAnnouncement],
    view: ProviderView,
) -> Verdict:
    """Ni's checks: my route was receipted, counted (b_|ri| = 1), and the
    commitment I was shown is internally consistent."""
    violations = []
    prover = config.prover

    if view.vector is not None and not view.vector.is_consistent(keystore):
        violations.append(
            Violation(
                kind="malformed-commitment",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="malformed-commitment",
                ),
                detail="commitment vector fails signature/consistency checks",
            )
        )
        return Verdict(verifier=provider, violations=tuple(violations))

    if announcement is None:
        # nothing was provided, so nothing is owed
        return Verdict(verifier=provider)

    if view.receipt is None:
        violations.append(
            Violation(
                kind="missing-receipt",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="missing-receipt",
                ),
            )
        )
    elif not (
        view.receipt.verify(keystore)
        and view.receipt.issuer == prover
        and view.receipt.provider == provider
        and view.receipt.round == config.round
        and view.receipt.announcement_digest == announcement.digest()
    ):
        violations.append(
            Violation(
                kind="invalid-receipt",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="invalid-receipt",
                ),
            )
        )

    if view.vector is None:
        violations.append(
            Violation(
                kind="missing-commitment",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="missing-commitment",
                ),
            )
        )
        return Verdict(verifier=provider, violations=tuple(violations))

    expected_index = len(announcement.route.as_path)
    disclosure = view.disclosure
    if disclosure is None:
        violations.append(
            Violation(
                kind="missing-disclosure",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="missing-disclosure",
                    context=(expected_index,),
                ),
            )
        )
        return Verdict(verifier=provider, violations=tuple(violations))

    if not disclosure.verify_signature(keystore) or disclosure.round != config.round:
        violations.append(
            Violation(
                kind="unsigned-disclosure",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="unsigned-disclosure",
                ),
            )
        )
        return Verdict(verifier=provider, violations=tuple(violations))

    if not disclosure.matches(view.vector):
        violations.append(
            Violation(
                kind="bad-opening",
                accused=prover,
                evidence=BadOpeningEvidence(
                    vector=view.vector, disclosure=disclosure
                ),
            )
        )
        return Verdict(verifier=provider, violations=tuple(violations))

    if disclosure.index != expected_index:
        violations.append(
            Violation(
                kind="wrong-bit-disclosed",
                accused=prover,
                complaint=Complaint(
                    accuser=provider, accused=prover, round=config.round,
                    claim="wrong-bit-disclosed",
                    context=(disclosure.index, expected_index),
                ),
            )
        )
    elif disclosure.opening.value != 1:
        # my route has length L, so an honest b_L must be 1; with the
        # receipt this is transferable proof
        if view.receipt is not None:
            violations.append(
                Violation(
                    kind="false-bit",
                    accused=prover,
                    evidence=FalseBitEvidence(
                        vector=view.vector,
                        disclosure=disclosure,
                        announcement=announcement,
                        receipt=view.receipt,
                    ),
                )
            )
        else:
            violations.append(
                Violation(
                    kind="false-bit-unreceipted",
                    accused=prover,
                    complaint=Complaint(
                        accuser=provider, accused=prover, round=config.round,
                        claim="false-bit-unreceipted",
                    ),
                )
            )

    return Verdict(verifier=provider, violations=tuple(violations))


def verify_as_recipient(
    keystore: KeyStore, config: RoundConfig, view: RecipientView
) -> Verdict:
    """B's checks (Section 3.3): provenance, monotonicity, and that the
    exported route's length equals the least committed set bit."""
    violations = []
    prover = config.prover
    recipient = config.recipient

    def complain(claim: str, context: tuple = ()) -> None:
        violations.append(
            Violation(
                kind=claim,
                accused=prover,
                complaint=Complaint(
                    accuser=recipient, accused=prover, round=config.round,
                    claim=claim, context=context,
                ),
            )
        )

    vector = view.vector
    if vector is None or not vector.is_consistent(keystore):
        complain("missing-or-malformed-commitment")
        return Verdict(verifier=recipient, violations=tuple(violations))

    attestation = view.attestation
    if attestation is None:
        complain("missing-attestation")
        return Verdict(verifier=recipient, violations=tuple(violations))
    if not attestation.verify_signature(keystore) or (
        attestation.recipient != recipient or attestation.round != config.round
    ):
        complain("invalid-attestation")
        return Verdict(verifier=recipient, violations=tuple(violations))

    # condition 1: exported => provided, under the provider's signature
    if not attestation.provenance_valid(keystore) or (
        attestation.provenance is not None
        and attestation.provenance.origin not in config.providers
    ):
        violations.append(
            Violation(
                kind="bad-provenance",
                accused=prover,
                evidence=BadProvenanceEvidence(attestation=attestation),
            )
        )

    # reconstruct the bit vector from the disclosures
    by_index: Dict[int, SignedDisclosure] = {}
    for disclosure in view.disclosures:
        if not disclosure.verify_signature(keystore):
            complain("unsigned-disclosure", (disclosure.index,))
            continue
        if disclosure.round != config.round or disclosure.topic != config.topic:
            complain("mismatched-disclosure", (disclosure.index,))
            continue
        if not disclosure.matches(vector):
            violations.append(
                Violation(
                    kind="bad-opening",
                    accused=prover,
                    evidence=BadOpeningEvidence(
                        vector=vector, disclosure=disclosure
                    ),
                )
            )
            continue
        by_index[disclosure.index] = disclosure

    missing = [
        index
        for index in range(1, config.max_length + 1)
        if index not in by_index
    ]
    if missing:
        complain("missing-disclosures", tuple(missing))
        return Verdict(verifier=recipient, violations=tuple(violations))

    bits = {index: by_index[index].opening.value for index in by_index}

    # monotonicity: b_i = 1 implies b_j = 1 for all j > i
    set_indices = [i for i, b in bits.items() if b == 1]
    clear_indices = [i for i, b in bits.items() if b == 0]
    for i in set_indices:
        later_clear = [j for j in clear_indices if j > i]
        if later_clear:
            violations.append(
                Violation(
                    kind="non-monotone",
                    accused=prover,
                    evidence=MonotonicityEvidence(
                        vector=vector,
                        set_bit=by_index[i],
                        clear_bit=by_index[min(later_clear)],
                    ),
                )
            )
            break

    exported = attestation.exported_length()
    min_set = min(set_indices) if set_indices else None

    if exported is None:
        if min_set is not None:
            # a route was available but nothing was exported
            violations.append(
                Violation(
                    kind="suppression",
                    accused=prover,
                    evidence=SuppressionEvidence(
                        vector=vector,
                        attestation=attestation,
                        disclosure=by_index[min_set],
                    ),
                )
            )
    else:
        if not 1 <= exported <= config.max_length:
            complain("export-length-out-of-range", (exported,))
        else:
            if bits.get(exported) == 0:
                # exported a route the commitment says did not exist
                violations.append(
                    Violation(
                        kind="phantom-export",
                        accused=prover,
                        evidence=PhantomExportEvidence(
                            vector=vector,
                            attestation=attestation,
                            disclosure=by_index[exported],
                        ),
                    )
                )
            # condition 3, generalized to promise 3: a route more than
            # `slack` hops shorter than the export was available
            shorter_set = [i for i in set_indices if i < exported - config.slack]
            if shorter_set:
                violations.append(
                    Violation(
                        kind="shorter-available",
                        accused=prover,
                        evidence=ShorterAvailableEvidence(
                            vector=vector,
                            attestation=attestation,
                            disclosure=by_index[min(shorter_set)],
                            slack=config.slack,
                        ),
                    )
                )

    return Verdict(verifier=recipient, violations=tuple(violations))
