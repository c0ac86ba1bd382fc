"""Promise 4: cross-recipient consistency (paper Section 2, promise 4).

"The route you get is no longer than what I tell anybody else" relates
A's *outputs to different neighbors* rather than inputs to outputs, so it
cannot be checked within one recipient's round view.  The mechanism is
the same as commitment gossip: export attestations are signed by A, so
recipients exchange them and compare lengths locally.  A recipient
holding its own attestation plus a strictly-shorter one addressed to
someone else has transferable :class:`UnequalTreatmentEvidence`.

:func:`cross_check` is one recipient's check; the multi-recipient round
around it (A, honest or discriminating via an :data:`ExportChooser`,
serves several recipients, attestations are gossiped, each recipient
cross-checks) is the ``crosscheck`` variant of
:class:`repro.pvr.engine.VerificationSession`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.crypto.keystore import KeyStore
from repro.pvr.announcements import SignedAnnouncement
from repro.pvr.commitments import ExportAttestation
from repro.pvr.evidence import UnequalTreatmentEvidence, Verdict, Violation


def cross_check(
    keystore: KeyStore,
    me: str,
    mine: ExportAttestation,
    others: Sequence[ExportAttestation],
) -> Verdict:
    """One recipient's promise-4 check against gossiped attestations.

    Attestations that fail signature checks or belong to other rounds or
    provers are ignored (a Byzantine gossiper must not be able to frame
    an honest prover with fabricated attestations).
    """
    violations: List[Violation] = []
    for other in others:
        if other.recipient == me:
            continue
        if other.author != mine.author or other.round != mine.round:
            continue
        if not other.verify_signature(keystore):
            continue
        evidence = UnequalTreatmentEvidence(
            victim_attestation=mine, other_attestation=other
        )
        if evidence.verify(keystore):
            violations.append(
                Violation(
                    kind="unequal-treatment",
                    accused=mine.author,
                    evidence=evidence,
                    detail=(
                        f"{other.recipient} was served "
                        f"{other.exported_length()} while {me} got "
                        f"{mine.exported_length()}"
                    ),
                )
            )
    return Verdict(verifier=me, violations=tuple(violations))


# An export policy decides what each recipient is served this round:
# recipient name -> the winning announcement (or None to serve nothing).
ExportChooser = Callable[
    [str, Dict[str, SignedAnnouncement]], Optional[SignedAnnouncement]
]


def honest_chooser(
    recipient: str, accepted: Dict[str, SignedAnnouncement]
) -> Optional[SignedAnnouncement]:
    """Serve everyone the same (shortest) route."""
    if not accepted:
        return None
    return min(accepted.values(), key=lambda a: (len(a.route.as_path), a.origin))


def discriminating_chooser(favored: str) -> ExportChooser:
    """Serve ``favored`` the shortest route and everyone else the longest
    — the classic promise-4 violation."""

    def choose(recipient, accepted):
        if not accepted:
            return None
        key = lambda a: (len(a.route.as_path), a.origin)
        if recipient == favored:
            return min(accepted.values(), key=key)
        return max(accepted.values(), key=key)

    return choose


def withholding_chooser(starved: str) -> ExportChooser:
    """Serve everyone except ``starved``."""

    def choose(recipient, accepted):
        if recipient == starved or not accepted:
            return None
        return min(accepted.values(), key=lambda a: (len(a.route.as_path), a.origin))

    return choose
