"""The feedback half: trust levels change how the system treats an AS.

One knob closes the loop from ledger state back into the serving
stack:

* :class:`VerificationIntensity` — the audit plane's sampling policy.
  :meth:`~repro.audit.monitor.Monitor.plan_epoch` consults it per fresh
  tuple; a high-trust AS is verified at rate ``r < 1`` with
  *deterministic seeded sampling* (a domain-separated SHA-256 over the
  seed, epoch and tuple identity — identical on the serving host and
  on the reference monitor), while rate 1.0 short-circuits to ``True`` before any
  hashing, so a full-rate ledger run is byte-identical to a ledger-free
  one.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.crypto.hashing import hash_bytes

from repro.ledger.levels import LedgerPolicy, TrustLevel

__all__ = ["VerificationIntensity"]

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
