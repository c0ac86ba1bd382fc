"""Byzantine prover behaviours.

"We adopt a conservative threat model and assume that an unknown subset
of the networks is Byzantine and can behave arbitrarily" (Section 3).
Each class here is an :class:`repro.pvr.minimum.HonestProver` subclass
deviating in exactly one documented way, so experiments can attribute
every detection to a specific attack:

=====================  ==========================  =====================
Adversary              Attack                      Detected by
=====================  ==========================  =====================
LongerRouteProver      exports a non-minimal       B (shorter-available)
                       route, honest bits
UnderstatingProver     zeroes the bits below its   some Ni (false-bit)
                       chosen export's length
SuppressingProver      exports nothing, honest     B (suppression)
                       bits
LyingSuppressor        exports nothing, all-zero   some Ni (false-bit)
                       bits
NonMonotoneProver      commits a non-monotone      B (monotonicity)
                       vector
EquivocatingProver     different commitments to    gossip (equivocation)
                       providers and recipient
BadOpeningProver       signed openings that do     any receiver
                       not match the commitments   (bad-opening)
NoReceiptProver        withholds receipts          Ni (complaint)
NoDisclosureProver     withholds Ni disclosures    Ni (complaint)
ForgedProvenanceProver exports a fabricated route  B (bad-provenance)
LeakyProver            honest outcome, but sends   confidentiality
                       every bit to every Ni       checker (leakage)
=====================  ==========================  =====================

The table is itself exercised by the FIG1 benchmark: every adversary class
must be detected by the parties the paper predicts, with transferable
evidence wherever the mechanism admits it.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.commitment import Opening
from repro.crypto.hashing import hash_bytes
from repro.pvr.announcements import Receipt, SignedAnnouncement
from repro.pvr.commitments import commit_bits, make_disclosure
from repro.pvr.minimum import (
    HonestProver,
    ProviderView,
    RecipientView,
    RoundConfig,
    RoundTranscript,
)


class LongerRouteProver(HonestProver):
    """Exports the *longest* available route while committing honestly.

    The paper's canonical violation: B sees bits admitting a shorter
    route and obtains shorter-available evidence.
    """

    def choose_winner(self, config, accepted):
        if not accepted:
            return None
        return max(
            accepted.values(), key=lambda a: (len(a.route.as_path), a.origin)
        )


class UnderstatingProver(HonestProver):
    """Exports a longer route *and* forges the bit vector to match,
    pretending the shorter routes were never received.

    B's checks pass; the cheated Ni's disclosure shows b_|ri| = 0, which
    together with A's receipt is transferable false-bit evidence.
    """

    def choose_winner(self, config, accepted):
        if not accepted:
            return None
        return max(
            accepted.values(), key=lambda a: (len(a.route.as_path), a.origin)
        )

    def compute_bits(self, config, accepted):
        winner = self.choose_winner(config, accepted)
        if winner is None:
            return (0,) * config.max_length
        chosen = len(winner.route.as_path)
        return tuple(
            1 if i >= chosen else 0 for i in range(1, config.max_length + 1)
        )


class SuppressingProver(HonestProver):
    """Receives routes but exports nothing, with honest bits."""

    def choose_winner(self, config, accepted):
        return None


class LyingSuppressor(HonestProver):
    """Exports nothing and commits an all-zero vector ("I got nothing")."""

    def choose_winner(self, config, accepted):
        return None

    def compute_bits(self, config, accepted):
        return (0,) * config.max_length


class NonMonotoneProver(HonestProver):
    """Commits a vector with a hole: the minimum bit set but a later bit
    cleared — internally inconsistent regardless of inputs."""

    def compute_bits(self, config, accepted):
        honest = super().compute_bits(config, accepted)
        bits = list(honest)
        first_set = next((i for i, b in enumerate(bits) if b == 1), None)
        if first_set is not None and first_set + 1 < len(bits):
            bits[first_set + 1] = 0
        return tuple(bits)


class EquivocatingProver(HonestProver):
    """Shows providers an honest commitment but shows B an all-zero one
    (covering a suppressed export).  Caught only when the neighbors
    gossip — the D4 ablation disables gossip to show the attack
    succeeding."""

    def run(self, config: RoundConfig, announcements) -> RoundTranscript:
        transcript = super().run(config, announcements)
        zero_vector, zero_openings = commit_bits(
            self.keystore, config.prover, config.topic, config.round,
            (0,) * config.max_length, self.random_bytes,
        )
        recipient_view = RecipientView(
            vector=zero_vector,
            attestation=self._none_attestation(config),
            disclosures=tuple(
                make_disclosure(
                    self.keystore, config.prover, config.topic, config.round,
                    index, zero_openings.opening(index),
                )
                for index in range(1, config.max_length + 1)
            ),
        )
        return RoundTranscript(
            config=config,
            announcements=transcript.announcements,
            provider_views=transcript.provider_views,
            recipient_view=recipient_view,
        )

    def _none_attestation(self, config: RoundConfig):
        from repro.pvr.commitments import make_attestation

        return make_attestation(
            self.keystore, config.prover, config.recipient, config.round,
            None, None,
        )


class BadOpeningProver(HonestProver):
    """Discloses openings whose value is flipped: the signature is A's but
    the opening does not match A's own commitment."""

    def build_provider_view(self, config, provider, announcement, receipt,
                            vector, openings):
        view = super().build_provider_view(
            config, provider, announcement, receipt, vector, openings
        )
        if view.disclosure is None:
            return view
        original = view.disclosure.opening
        flipped = Opening(
            label=original.label, value=1 - original.value, nonce=original.nonce
        )
        forged = make_disclosure(
            self.keystore, config.prover, config.topic, config.round,
            view.disclosure.index, flipped,
        )
        return ProviderView(
            receipt=view.receipt, vector=view.vector, disclosure=forged
        )


class NoReceiptProver(HonestProver):
    """Never acknowledges announcements."""

    def issue_receipt(self, config, announcement) -> Optional[Receipt]:
        return None


class NoDisclosureProver(HonestProver):
    """Withholds the bit disclosure from every provider."""

    def build_provider_view(self, config, provider, announcement, receipt,
                            vector, openings):
        view = super().build_provider_view(
            config, provider, announcement, receipt, vector, openings
        )
        return ProviderView(receipt=view.receipt, vector=view.vector,
                            disclosure=None)


class ForgedProvenanceProver(HonestProver):
    """Exports a short route nobody announced, with self-made provenance.

    The forged announcement cannot carry the claimed provider's signature,
    so B obtains bad-provenance evidence.
    """

    def __init__(self, keystore, forged_route, claimed_provider,
                 random_bytes=None) -> None:
        super().__init__(keystore, random_bytes)
        self.forged_route = forged_route
        self.claimed_provider = claimed_provider

    def choose_winner(self, config, accepted):
        from repro.pvr.announcements import announcement_bytes

        # we do not have the provider's key, so the "signature" is
        # made-up bytes; verification against the provider's key fails.
        # (Not a signature of our own: the attestation covers this
        # announcement's digest, so it cannot hold a batch leaf that is
        # sealed only after the attestation is signed.)
        body = announcement_bytes(
            self.forged_route, self.claimed_provider, config.prover, config.round
        )
        signature = hash_bytes("repro.pvr.forged-signature", body)
        return SignedAnnouncement(
            route=self.forged_route,
            origin=self.claimed_provider,
            recipient=config.prover,
            round=config.round,
            signature=signature,
        )

    def compute_bits(self, config, accepted):
        # bits consistent with the forged route so B's length checks pass
        forged_len = len(self.forged_route.as_path)
        lengths = [len(a.route.as_path) for a in accepted.values()]
        lengths.append(forged_len)
        from repro.pvr.commitments import compute_length_bits

        return compute_length_bits(lengths, config.max_length)


class LeakyProver(HonestProver):
    """Protocol-correct but privacy-violating: sends every provider the
    full bit vector (B's view).  No verifier flags it — only the
    confidentiality checker does, which is exactly the point of having
    leakage accounting separate from violation detection."""

    def build_provider_view(self, config, provider, announcement, receipt,
                            vector, openings):
        view = super().build_provider_view(
            config, provider, announcement, receipt, vector, openings
        )
        # model "full view" by disclosing bit 1..L to the provider through
        # extra disclosures; the leakage checker consumes transcripts, so
        # we stash them on the view via a subclassed tuple
        extra = tuple(
            make_disclosure(
                self.keystore, config.prover, config.topic, config.round,
                index, openings.opening(index),
            )
            for index in range(1, config.max_length + 1)
        )
        return ProviderView(
            receipt=view.receipt, vector=view.vector,
            disclosure=view.disclosure, extra_disclosures=extra,
        )
