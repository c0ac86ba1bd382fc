"""repro.control — the self-regulating control plane.

The serving stack (``repro.serve``, ``repro.cluster``) produces a
stream of observations — per-worker epoch latency, admission-queue
depth — but without this package its admission policy is open-loop:
shedding fires only once requests queue.  ``repro.control`` closes the
loop:

* :mod:`repro.control.signals` — the shared exact nearest-rank
  percentile primitives (:func:`nearest_rank`, :class:`LatencySeries`)
  and a ring-buffered :class:`SignalBus` of sliding-window signals.
* :mod:`repro.control.policies` — :class:`AdaptiveAdmission`, the
  controller-driven admission policy (sheds queries under overload,
  never churn or adjudication).
* :mod:`repro.control.controller` — :class:`Controller`, the
  deterministic per-epoch tick that turns signals into the shed
  level.

Control decisions never perturb what is verified: a controller-enabled
run's evidence trail is byte-identical to the unsharded reference.
"""

from repro.control.controller import ControlPolicy, Controller, Decision
from repro.control.policies import AdaptiveAdmission
from repro.control.signals import (
    LatencySeries,
    SignalBus,
    SignalWindow,
    nearest_rank,
)

__all__ = [
    "AdaptiveAdmission",
    "ControlPolicy",
    "Controller",
    "Decision",
    "LatencySeries",
    "SignalBus",
    "SignalWindow",
    "nearest_rank",
]
