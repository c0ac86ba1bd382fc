"""The third party that evidence must convince (paper Section 2.3).

The judge holds nothing but the public-key directory.  Two duties:

* :meth:`Judge.validate` — check transferable evidence.  Sound for the
  *Evidence* property (valid evidence convicts) and for *Accuracy*
  (fabricated evidence against an honest AS never validates, because every
  component must carry the accused's own signature).

* :meth:`Judge.resolve_complaint` — adjudicate the detectable-but-not-
  provable cases (withheld messages).  The accused is asked to produce
  the allegedly-missing item; an honest AS always can, so a complaint is
  *upheld* only when the response is absent or invalid.  Responses that
  are signed-but-wrong convert the complaint into transferable evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.keystore import KeyStore
from repro.pvr.announcements import Receipt
from repro.pvr.commitments import CommittedBitVector, ExportAttestation
from repro.pvr.evidence import BadOpeningEvidence, Complaint, Evidence

UPHELD = "upheld"
DISMISSED = "dismissed"

#: what ``SignedDisclosure`` and the Section 3.8 ``BatchedDisclosure``
#: share — an honest batching prover answers with the latter
_DISCLOSURE_INTERFACE = (
    "author", "round", "index", "opening", "verify_signature", "matches",
)


def _is_disclosure(response: object) -> bool:
    return all(hasattr(response, name) for name in _DISCLOSURE_INTERFACE)


@dataclass(frozen=True)
class ComplaintRuling:
    """Outcome of interactive complaint resolution."""

    outcome: str
    derived_evidence: Optional[Evidence] = None
    reason: str = ""

    @property
    def upheld(self) -> bool:
        return self.outcome == UPHELD


class Judge:
    """Validates evidence and arbitrates complaints."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore

    def validate(self, evidence: Evidence) -> bool:
        """True when the evidence proves misbehaviour by its accused."""
        return evidence.verify(self._keystore)

    def resolve_complaint(
        self,
        complaint: Complaint,
        response: object | None,
        vector: CommittedBitVector | None = None,
    ) -> ComplaintRuling:
        """Ask the accused to answer ``complaint`` with ``response``.

        ``vector`` is the gossiped commitment for the round, used to check
        disclosure responses; the judge obtains it from any neighbor.
        """
        claim = complaint.claim
        if response is None:
            return ComplaintRuling(UPHELD, reason="accused produced nothing")

        if claim in ("missing-receipt", "invalid-receipt"):
            if (
                isinstance(response, Receipt)
                and response.verify(self._keystore)
                and response.issuer == complaint.accused
                and response.provider == complaint.accuser
                and response.round == complaint.round
            ):
                return ComplaintRuling(DISMISSED, reason="valid receipt produced")
            return ComplaintRuling(UPHELD, reason="response is not a valid receipt")

        if claim in (
            "missing-disclosure",
            "unsigned-disclosure",
            "wrong-bit-disclosed",
            "missing-disclosures",
        ):
            if not _is_disclosure(response):
                return ComplaintRuling(UPHELD, reason="response is not a disclosure")
            if not response.verify_signature(self._keystore) or (
                response.author != complaint.accused
                or response.round != complaint.round
            ):
                return ComplaintRuling(UPHELD, reason="disclosure not validly signed")
            if complaint.context and claim in ("missing-disclosure",
                                               "wrong-bit-disclosed"):
                expected_index = complaint.context[0] if claim == "missing-disclosure" \
                    else complaint.context[1]
                if response.index != expected_index:
                    return ComplaintRuling(
                        UPHELD, reason="disclosure answers the wrong bit"
                    )
            if vector is not None and not response.matches(vector):
                # the accused answered with a signed-but-wrong opening:
                # that is transferable bad-opening evidence
                return ComplaintRuling(
                    UPHELD,
                    derived_evidence=BadOpeningEvidence(
                        vector=vector, disclosure=response
                    ),
                    reason="disclosure does not open the committed bit",
                )
            return ComplaintRuling(DISMISSED, reason="valid disclosure produced")

        if claim in ("missing-commitment", "malformed-commitment",
                     "missing-or-malformed-commitment"):
            if (
                isinstance(response, CommittedBitVector)
                and response.is_consistent(self._keystore)
                and response.author == complaint.accused
                and response.round == complaint.round
            ):
                return ComplaintRuling(DISMISSED, reason="consistent commitment produced")
            return ComplaintRuling(UPHELD, reason="no consistent commitment produced")

        if claim in ("missing-attestation", "invalid-attestation",
                     "missing-or-invalid-attestation"):
            if (
                isinstance(response, ExportAttestation)
                and response.verify_signature(self._keystore)
                and response.author == complaint.accused
                and response.recipient == complaint.accuser
                and response.round == complaint.round
            ):
                return ComplaintRuling(DISMISSED, reason="valid attestation produced")
            return ComplaintRuling(UPHELD, reason="no valid attestation produced")

        return ComplaintRuling(UPHELD, reason=f"unrecognized claim {claim!r}")
