"""repro.control — the self-regulating control plane.

The serving stack (``repro.serve``, ``repro.cluster``) produces a
stream of observations — per-worker epoch latency, admission-queue
depth, per-shard load — but until this package its knobs (admission
policy, placement) were open-loop: shedding fired only once requests
queued, and resharding happened only when a CLI told it to.
``repro.control`` closes the loop:

* :mod:`repro.control.signals` — the shared exact nearest-rank
  percentile primitives (:func:`nearest_rank`, :class:`LatencySeries`)
  and a ring-buffered :class:`SignalBus` of sliding-window signals.
* :mod:`repro.control.policies` — :class:`AdaptiveAdmission`, the
  controller-driven admission policy (sheds queries under overload,
  never churn or adjudication).
* :mod:`repro.control.controller` — :class:`Controller`, the
  deterministic per-epoch tick that turns signals into decisions
  (shed level, rebalance, grow) with hysteresis so the cluster never
  thrashes.

Every placement decision the controller makes is executed through the
exact same ``Cluster.reshard``/``rebalance``/``Placement.rebalance``
seams the CLIs use, between requests — so a controller-driven reshard
is byte-identical to the equivalent CLI-driven one under the parity
oracle.
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
