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

:class:`LedgerPolicy` is a frozen, picklable value — it rides inside the
:class:`~repro.cluster.spec.ClusterSpec` and the coordinator's
checkpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

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
    """The ledger's promotion and slashing parameters, as data."""

    initial_level: TrustLevel = TrustLevel.PROBATIONARY
    clean_epochs_to_promote: int = 3
    min_coverage: int = 1
    slash_to: TrustLevel = TrustLevel.QUARANTINED

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

    def describe(self) -> Dict[str, object]:
        return {
            "initial_level": self.initial_level.name,
            "clean_epochs_to_promote": self.clean_epochs_to_promote,
            "min_coverage": self.min_coverage,
            "slash_to": self.slash_to.name,
        }
