"""Example #1: PVR verification of the existential operator (Section 3.2).

A promises B to export *a* route whenever at least one Ni provides one.
The protocol commits to a single bit ``b`` ("A received at least one
route"), published as ``c := H(b || p)`` and gossiped; A then reveals
``(b, p)`` to every Ni that provided a route, and the signed route (if
any) to B.  The two verification conditions:

1. **B**: if a route was exported, it carries a valid provider signature
   (provenance); and the exported/not-exported outcome is consistent with
   the committed bit;
2. **each Ni**: if it provided a route, A revealed ``(b, p)`` with
   ``b = 1`` and the opening matches the gossiped commitment.

The link-state variant — where announcements carry a *ring signature* so
that B learns "some Ni vouched" without learning which — is provided by
:func:`ring_announce` / :func:`verify_ring_provenance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.crypto import ring as ring_mod
from repro.crypto.keystore import KeyStore
from repro.pvr.announcements import Receipt, SignedAnnouncement, make_receipt
from repro.pvr.commitments import (
    BitVectorOpenings,
    CommittedBitVector,
    ExportAttestation,
    SignedDisclosure,
    commit_bits,
    make_attestation,
    make_disclosure,
)
from repro.pvr.evidence import (
    BadOpeningEvidence,
    BadProvenanceEvidence,
    Complaint,
    ExistsFalseBitEvidence,
    ExistsPhantomEvidence,
    SuppressionEvidence,
    Verdict,
    Violation,
)
from repro.pvr.minimum import RoundConfig

TOPIC = "pvr-exists"
BIT_INDEX = 1  # the single existence bit lives at vector index 1


@dataclass(frozen=True)
class ExistentialProviderView:
    receipt: Optional[Receipt] = None
    vector: Optional[CommittedBitVector] = None
    disclosure: Optional[SignedDisclosure] = None


@dataclass(frozen=True)
class ExistentialRecipientView:
    vector: Optional[CommittedBitVector] = None
    attestation: Optional[ExportAttestation] = None
    disclosure: Optional[SignedDisclosure] = None


@dataclass(frozen=True)
class ExistentialTranscript:
    config: RoundConfig
    announcements: Mapping[str, Optional[SignedAnnouncement]]
    provider_views: Mapping[str, ExistentialProviderView]
    recipient_view: ExistentialRecipientView


class ExistentialProver:
    """A's honest behaviour for one existential-protocol round."""

    def __init__(
        self,
        keystore: KeyStore,
        random_bytes: Callable[[int], bytes] | None = None,
    ) -> None:
        self.keystore = keystore
        self.random_bytes = random_bytes

    def accept_announcements(
        self,
        config: RoundConfig,
        announcements: Mapping[str, Optional[SignedAnnouncement]],
    ) -> Dict[str, SignedAnnouncement]:
        accepted: Dict[str, SignedAnnouncement] = {}
        for provider in config.providers:
            ann = announcements.get(provider)
            if ann is None:
                continue
            if ann.origin != provider or ann.recipient != config.prover:
                continue
            if ann.round != config.round:
                continue
            if len(ann.route.as_path) < 1:
                continue
            if not ann.verify(self.keystore):
                continue
            accepted[provider] = ann
        return accepted

    def compute_bit(
        self, config: RoundConfig, accepted: Mapping[str, SignedAnnouncement]
    ) -> int:
        return 1 if accepted else 0

    def choose_export(
        self, config: RoundConfig, accepted: Mapping[str, SignedAnnouncement]
    ) -> Optional[SignedAnnouncement]:
        """Any provided route satisfies the existential promise; pick
        deterministically for replayability."""
        if not accepted:
            return None
        return accepted[min(accepted)]

    def run(
        self,
        config: RoundConfig,
        announcements: Mapping[str, Optional[SignedAnnouncement]],
    ) -> ExistentialTranscript:
        accepted = self.accept_announcements(config, announcements)
        bit = self.compute_bit(config, accepted)
        vector, openings = commit_bits(
            self.keystore, config.prover, TOPIC, config.round, (bit,),
            self.random_bytes,
        )
        winner = self.choose_export(config, accepted)
        provider_views = {}
        for provider in config.providers:
            ann = accepted.get(provider)
            if ann is None:
                provider_views[provider] = ExistentialProviderView(
                    vector=vector
                )
                continue
            provider_views[provider] = ExistentialProviderView(
                receipt=make_receipt(self.keystore, config.prover, ann),
                vector=vector,
                disclosure=self._disclose(config, openings),
            )
        recipient_view = self._build_recipient_view(config, winner, vector, openings)
        return ExistentialTranscript(
            config=config,
            announcements=dict(announcements),
            provider_views=provider_views,
            recipient_view=recipient_view,
        )

    def _disclose(
        self, config: RoundConfig, openings: BitVectorOpenings
    ) -> SignedDisclosure:
        return make_disclosure(
            self.keystore, config.prover, TOPIC, config.round,
            BIT_INDEX, openings.opening(BIT_INDEX),
        )

    def _build_recipient_view(
        self,
        config: RoundConfig,
        winner: Optional[SignedAnnouncement],
        vector: CommittedBitVector,
        openings: BitVectorOpenings,
    ) -> ExistentialRecipientView:
        if winner is None:
            attestation = make_attestation(
                self.keystore, config.prover, config.recipient, config.round,
                None, None,
            )
        else:
            attestation = make_attestation(
                self.keystore, config.prover, config.recipient, config.round,
                winner.route.exported_by(config.prover), winner,
            )
        return ExistentialRecipientView(
            vector=vector,
            attestation=attestation,
            disclosure=self._disclose(config, openings),
        )


def verify_as_provider(
    keystore: KeyStore,
    config: RoundConfig,
    provider: str,
    announcement: Optional[SignedAnnouncement],
    view: ExistentialProviderView,
) -> Verdict:
    """Condition 2: "if Ni has provided a route to A, then A has revealed
    b and p to Ni, and b = 1"."""
    violations = []
    prover = config.prover

    if view.vector is not None and not view.vector.is_consistent(keystore):
        violations.append(Violation(
            kind="malformed-commitment", accused=prover,
            complaint=Complaint(accuser=provider, accused=prover,
                                round=config.round,
                                claim="malformed-commitment"),
        ))
        return Verdict(verifier=provider, violations=tuple(violations))

    if announcement is None:
        return Verdict(verifier=provider)

    if view.receipt is None or not (
        view.receipt.verify(keystore)
        and view.receipt.issuer == prover
        and view.receipt.provider == provider
        and view.receipt.round == config.round
        and view.receipt.announcement_digest == announcement.digest()
    ):
        violations.append(Violation(
            kind="missing-receipt", accused=prover,
            complaint=Complaint(accuser=provider, accused=prover,
                                round=config.round, claim="missing-receipt"),
        ))

    if view.vector is None:
        violations.append(Violation(
            kind="missing-commitment", accused=prover,
            complaint=Complaint(accuser=provider, accused=prover,
                                round=config.round,
                                claim="missing-commitment"),
        ))
        return Verdict(verifier=provider, violations=tuple(violations))

    disclosure = view.disclosure
    if disclosure is None:
        violations.append(Violation(
            kind="missing-disclosure", accused=prover,
            complaint=Complaint(accuser=provider, accused=prover,
                                round=config.round,
                                claim="missing-disclosure"),
        ))
        return Verdict(verifier=provider, violations=tuple(violations))

    if not disclosure.verify_signature(keystore) or disclosure.round != config.round:
        violations.append(Violation(
            kind="unsigned-disclosure", accused=prover,
            complaint=Complaint(accuser=provider, accused=prover,
                                round=config.round,
                                claim="unsigned-disclosure"),
        ))
        return Verdict(verifier=provider, violations=tuple(violations))

    if not disclosure.matches(view.vector):
        violations.append(Violation(
            kind="bad-opening", accused=prover,
            evidence=BadOpeningEvidence(vector=view.vector,
                                        disclosure=disclosure),
        ))
        return Verdict(verifier=provider, violations=tuple(violations))

    if disclosure.opening.value != 1:
        if view.receipt is not None and view.receipt.verify(keystore):
            violations.append(Violation(
                kind="exists-false-bit", accused=prover,
                evidence=ExistsFalseBitEvidence(
                    vector=view.vector, disclosure=disclosure,
                    announcement=announcement, receipt=view.receipt,
                ),
            ))
        else:
            violations.append(Violation(
                kind="exists-false-bit-unreceipted", accused=prover,
                complaint=Complaint(accuser=provider, accused=prover,
                                    round=config.round,
                                    claim="exists-false-bit-unreceipted"),
            ))

    return Verdict(verifier=provider, violations=tuple(violations))


def verify_as_recipient(
    keystore: KeyStore, config: RoundConfig, view: ExistentialRecipientView
) -> Verdict:
    """Condition 1 plus bit/export consistency."""
    violations = []
    prover = config.prover
    recipient = config.recipient

    def complain(claim: str, context: tuple = ()) -> None:
        violations.append(Violation(
            kind=claim, accused=prover,
            complaint=Complaint(accuser=recipient, accused=prover,
                                round=config.round, claim=claim,
                                context=context),
        ))

    vector = view.vector
    if vector is None or not vector.is_consistent(keystore):
        complain("missing-or-malformed-commitment")
        return Verdict(verifier=recipient, violations=tuple(violations))

    attestation = view.attestation
    if attestation is None or not attestation.verify_signature(keystore) or (
        attestation.recipient != recipient or attestation.round != config.round
    ):
        complain("missing-or-invalid-attestation")
        return Verdict(verifier=recipient, violations=tuple(violations))

    if not attestation.provenance_valid(keystore) or (
        attestation.provenance is not None
        and attestation.provenance.origin not in config.providers
    ):
        violations.append(Violation(
            kind="bad-provenance", accused=prover,
            evidence=BadProvenanceEvidence(attestation=attestation),
        ))

    disclosure = view.disclosure
    if disclosure is None:
        complain("missing-disclosure")
        return Verdict(verifier=recipient, violations=tuple(violations))
    if not disclosure.verify_signature(keystore) or disclosure.round != config.round:
        complain("unsigned-disclosure")
        return Verdict(verifier=recipient, violations=tuple(violations))
    if not disclosure.matches(vector):
        violations.append(Violation(
            kind="bad-opening", accused=prover,
            evidence=BadOpeningEvidence(vector=vector, disclosure=disclosure),
        ))
        return Verdict(verifier=recipient, violations=tuple(violations))

    bit = disclosure.opening.value
    exported = attestation.route is not None
    if bit == 1 and not exported:
        violations.append(Violation(
            kind="suppression", accused=prover,
            evidence=SuppressionEvidence(
                vector=vector, attestation=attestation, disclosure=disclosure,
            ),
        ))
    if bit == 0 and exported:
        violations.append(Violation(
            kind="exists-phantom", accused=prover,
            evidence=ExistsPhantomEvidence(
                vector=vector, disclosure=disclosure, attestation=attestation,
            ),
        ))

    return Verdict(verifier=recipient, violations=tuple(violations))


# -- link-state variant: ring-signed existence statements ---------------------


def ring_statement(config: RoundConfig) -> bytes:
    """The message the providers ring-sign: "a route exists this round"."""
    from repro.util.encoding import canonical_encode

    return canonical_encode(
        ("pvr-ring-exists", config.prover, config.round, tuple(config.providers))
    )


def ring_announce(
    keystore: KeyStore,
    config: RoundConfig,
    signer: str,
    random_bytes: Callable[[int], bytes] | None = None,
) -> ring_mod.RingSignature:
    """``signer`` (one of the providers) ring-signs the existence statement
    on behalf of the whole provider set."""
    members = list(config.providers)
    if signer not in members:
        raise ValueError(f"{signer!r} is not a provider")
    ring_keys = [keystore.public_key(m) for m in members]
    return ring_mod.sign(
        ring_statement(config),
        ring_keys,
        keystore.private_key(signer),
        members.index(signer),
        random_bytes,
    )


def verify_ring_provenance(
    keystore: KeyStore, config: RoundConfig, signature: ring_mod.RingSignature
) -> bool:
    """B's check in the link-state variant: *some* provider vouched for
    the route's existence, with no way to tell which."""
    ring_keys = [keystore.public_key(m) for m in config.providers]
    return ring_mod.verify(ring_statement(config), ring_keys, signature)
