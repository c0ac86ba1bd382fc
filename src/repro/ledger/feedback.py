"""The feedback half: trust levels change how the system treats an AS.

Three knobs close the loop from ledger state back into the serving
stack:

* :class:`VerificationIntensity` — the audit plane's sampling policy.
  :meth:`~repro.audit.monitor.Monitor.plan_epoch` consults it per fresh
  tuple; a high-trust AS is verified at rate ``r < 1`` with
  *deterministic seeded sampling* (a domain-separated SHA-256 over the
  seed, epoch and tuple identity — identical on the serving host and
  on the reference monitor), while rate 1.0 short-circuits to ``True`` before any
  hashing, so a full-rate ledger run is byte-identical to a ledger-free
  one.
* :class:`TrustTieredAdmission` — the serve/cluster admission variant:
  requests that touch low-trust ASes (their churn re-audits, their
  Byzantine probes, and adjudications while any AS sits below the
  threshold) bypass the graduated priority door and may fill the whole
  queue — the traffic that resolves distrust is admitted first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.cluster.admission import PriorityAdmission
from repro.crypto.hashing import hash_bytes

from repro.ledger.levels import LedgerPolicy, TrustLevel

__all__ = [
    "TrustTieredAdmission",
    "VerificationIntensity",
]

_SAMPLE_DOMAIN = "ledger-sample"


class VerificationIntensity:
    """Trust-aware verification sampling for the epoch planner.

    ``trust`` is the per-AS level snapshot sampling decides on; it is
    replaced wholesale via :meth:`update`, or pulled from a bound
    ``ledger`` at each :meth:`begin_epoch` (every monitor a
    ``ClusterSpec`` builds).  Sampling is a pure function of ``(seed,
    epoch, tuple identity, rate)`` — no mutable state, no RNG — so any
    two monitors over the same trail skip exactly the same entries.
    """

    def __init__(
        self,
        policy: Optional[LedgerPolicy] = None,
        *,
        seed: object = 2011,
        ledger=None,
        trust: Optional[Mapping[str, TrustLevel]] = None,
    ) -> None:
        self.policy = policy if policy is not None else LedgerPolicy()
        self.seed = seed
        self.ledger = ledger
        self._trust: Dict[str, TrustLevel] = dict(trust or {})
        self.sampled_out = 0

    def update(self, trust: Mapping[str, TrustLevel]) -> None:
        """Adopt a fresh trust snapshot."""
        self._trust = dict(trust)

    def begin_epoch(self, epoch: int) -> None:
        """Epoch boundary: settle the bound ledger (if any) so planning
        sees trust as of everything recorded before this epoch."""
        if self.ledger is not None:
            self.ledger.settle()
            self.update(self.ledger.trust_map())

    def level_of(self, asn: str) -> TrustLevel:
        return self._trust.get(asn, self.policy.initial_level)

    def rate_for(self, asn: str) -> float:
        return self.policy.rate_for(self.level_of(asn))

    def should_verify(
        self,
        asn: str,
        prefix,
        policy_name: str,
        recipients: Tuple[str, ...],
        *,
        epoch: int,
    ) -> bool:
        """Deterministic per-tuple sampling decision for one epoch.

        Rate 1.0 returns ``True`` before any hashing — zero side
        effects, so a full-rate run is byte-identical (including hash
        op counters) to a run with no intensity installed."""
        rate = self.rate_for(asn)
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        draw = int.from_bytes(
            hash_bytes(
                _SAMPLE_DOMAIN,
                repr((
                    self.seed, epoch, asn, str(prefix), policy_name,
                    tuple(recipients),
                )).encode("utf-8"),
            )[:8],
            "big",
        )
        keep = draw / float(1 << 64) < rate
        if not keep:
            self.sampled_out += 1
        return keep

    def describe(self) -> Dict[str, object]:
        return {
            "seed": repr(self.seed),
            "sampled_out": self.sampled_out,
            "levels": {
                asn: level.name
                for asn, level in sorted(self._trust.items())
            },
            "rates": {
                level.name: self.policy.rate_for(level)
                for level in TrustLevel
            },
        }


def _request_ases(request) -> Tuple[str, ...]:
    """The AS names a request visibly touches (marks and probes; churn
    *steps* are opaque builder pairs and are not inspected)."""
    ases = []
    for asn, _prefix in getattr(request, "marks", ()) or ():
        ases.append(asn)
    for probe in getattr(request, "probes", ()) or ():
        ases.append(probe.asn)
    asn = getattr(request, "asn", None)
    if asn is not None:
        ases.append(asn)
    return tuple(ases)


@dataclass(frozen=True)
class TrustTieredAdmission(PriorityAdmission):
    """A :class:`~repro.cluster.admission.PriorityAdmission` variant
    whose door looks at the *request*, not just its kind.

    Requests touching an AS below ``boost_below`` — its re-audit marks,
    Byzantine probes aimed at it, queries scoped to it — and
    adjudication requests while any tracked AS sits below the threshold
    (adjudication is what resolves distrust) are admitted up to the
    full queue depth; everything else falls back to the graduated
    per-kind door.  ``update`` adopts each settled trust snapshot (the
    coordinator refreshes it per epoch).
    """

    trust: Mapping[str, TrustLevel] = field(default_factory=dict)
    boost_below: TrustLevel = TrustLevel.STANDARD
    initial_level: TrustLevel = TrustLevel.PROBATIONARY

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "trust", dict(self.trust))

    def update(self, trust: Mapping[str, TrustLevel]) -> None:
        object.__setattr__(self, "trust", dict(trust))

    def _low_trust(self, asn: str) -> bool:
        return self.trust.get(asn, self.initial_level) < self.boost_below

    def boosted(self, request) -> bool:
        if request.kind == "adjudicate":
            return any(self._low_trust(asn) for asn in self.trust)
        return any(self._low_trust(asn) for asn in _request_ases(request))

    def at_door_request(self, request, queued: int, depth: int) -> bool:
        if self.boosted(request):
            return queued < depth
        return self.at_door(request.kind, queued, depth)

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["boost_below"] = self.boost_below.name
        summary["low_trust_ases"] = sorted(
            asn for asn in self.trust if self._low_trust(asn)
        )
        return summary
