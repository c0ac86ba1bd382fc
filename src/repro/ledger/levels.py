"""The trust ladder and the ledger's rule parameters.

:class:`TrustLevel` is an ordered four-rung ladder::

    QUARANTINED < PROBATIONARY < STANDARD < TRUSTED

Every AS starts at the policy's ``initial_level`` (default
``PROBATIONARY``: new ASes have earned nothing yet).  Levels only move
under two rules, both evidence-gated:

* **promotion** (``clean-streak``) — one rung up after
  ``clean_epochs_to_promote`` *consecutive* settled epochs in which the
  AS was audited at least ``min_coverage`` times and every verdict was
  clean.  An epoch with no coverage neither advances nor resets the
  streak: a level can never rise without logged evidence.
* **slashing** (``slash:adjudicated``) — straight down to ``slash_to``
  when the third-party judge *confirms* a recorded violation
  (transferable evidence validated, or a complaint upheld).  A mere
  failed verification — which may be a dropped wire message — resets
  the clean streak but never demotes; attribution is the judge's job.

:class:`LedgerPolicy` also carries the feedback knob: per-level
verification sampling rates (``sampling_rates``, consumed by
:class:`~repro.ledger.feedback.VerificationIntensity`).  The policy is
a frozen, picklable value — it rides inside the
:class:`~repro.cluster.spec.ClusterSpec` and the coordinator's
checkpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

__all__ = ["LedgerPolicy", "TrustLevel"]


class TrustLevel(enum.IntEnum):
    """The ordered trust ladder.  ``IntEnum`` so levels compare, sort
    and pickle as plain integers across worker processes."""

    QUARANTINED = 0
    PROBATIONARY = 1
    STANDARD = 2
    TRUSTED = 3

    def next_up(self) -> "TrustLevel":
        """The rung above (saturating at ``TRUSTED``)."""
        return TrustLevel(min(self.value + 1, TrustLevel.TRUSTED.value))


@dataclass(frozen=True)
class LedgerPolicy:
    """The ledger's promotion/slashing/feedback parameters, as data.

    ``sampling_rates`` maps trust levels to the fraction of *fresh*
    epoch work the audit plane actually verifies for ASes at that level
    (missing levels default to 1.0 — full verification).  A rate of 1.0
    is a strict identity: the plan, the rounds and the evidence trail
    are byte-for-byte those of a ledger-free monitor.
    """

    initial_level: TrustLevel = TrustLevel.PROBATIONARY
    clean_epochs_to_promote: int = 3
    min_coverage: int = 1
    slash_to: TrustLevel = TrustLevel.QUARANTINED
    sampling_rates: Mapping[TrustLevel, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.clean_epochs_to_promote < 1:
            raise ValueError(
                f"clean_epochs_to_promote must be >= 1, "
                f"got {self.clean_epochs_to_promote}"
            )
        if self.min_coverage < 1:
            raise ValueError(
                f"min_coverage must be >= 1, got {self.min_coverage}"
            )
        rates = {
            TrustLevel(level): float(rate)
            for level, rate in self.sampling_rates.items()
        }
        for level, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"sampling rate for {level.name} must be in [0, 1], "
                    f"got {rate}"
                )
        object.__setattr__(self, "sampling_rates", rates)

    def rate_for(self, level: TrustLevel) -> float:
        """The verification sampling rate at ``level`` (default 1.0)."""
        return self.sampling_rates.get(TrustLevel(level), 1.0)

    def describe(self) -> Dict[str, object]:
        return {
            "initial_level": self.initial_level.name,
            "clean_epochs_to_promote": self.clean_epochs_to_promote,
            "min_coverage": self.min_coverage,
            "slash_to": self.slash_to.name,
            "sampling_rates": {
                level.name: rate
                for level, rate in sorted(self.sampling_rates.items())
            },
        }
