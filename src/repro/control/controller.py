"""The deterministic controller: signals in, decisions out.

:class:`Controller` owns a :class:`~repro.control.signals.SignalBus`
and is ticked by the cluster coordinator after every served churn
group (``Cluster.serve_group`` — one cadence, whichever door the group
came through).  Each ``tick()`` is a pure function of
the bus contents: no clocks, no randomness — the same observation
sequence always produces the same decision log.

One loop per tick, **admission**: the windowed epoch-wall percentile
and queue-depth history are collapsed into an overload ``severity`` ∈
[0, 1]; the host's admission queue pushes it into the policy's
``update_signals`` (a no-op except for
:class:`~repro.control.policies.AdaptiveAdmission`).  (There is no
placement loop: the round pool's workers hold no per-pair state, so
there is no load to move.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.control.signals import SignalBus
from repro.obs.trace import TraceContext

__all__ = ["ControlPolicy", "Controller", "Decision"]


@dataclass(frozen=True)
class ControlPolicy:
    """The controller's knobs.  All thresholds are plain numbers so a
    policy is picklable inside a ``ClusterSpec``."""

    #: sliding-window capacity for every signal
    window: int = 32
    #: epoch-wall percentile the admission loop watches
    latency_percentile: float = 90.0
    #: seconds of epoch wall past which the pipeline counts as behind
    latency_bound: float = 1.0
    #: queue fraction (p90 over the window) that counts as pressure
    queue_high: float = 0.5
    #: staleness bound pushed into AdaptiveAdmission at dispatch
    stale_after: float = 0.25

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive: {self.window}")
        if not 0 < self.latency_percentile <= 100:
            raise ValueError(
                f"latency_percentile must be in (0, 100]: "
                f"{self.latency_percentile}"
            )
        if self.latency_bound <= 0:
            raise ValueError(
                f"latency_bound must be > 0: {self.latency_bound}"
            )
        if not 0 < self.queue_high <= 1:
            raise ValueError(f"queue_high must be in (0, 1]: {self.queue_high}")
        if self.stale_after <= 0:
            raise ValueError(f"stale_after must be > 0: {self.stale_after}")

    def describe(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "latency_percentile": self.latency_percentile,
            "latency_bound_s": self.latency_bound,
            "queue_high": self.queue_high,
            "stale_after_s": self.stale_after,
        }


@dataclass
class Decision:
    """One controller decision, JSON-ready for the decision log."""

    tick: int
    action: str  # "admission"
    reason: str
    signals: Dict[str, object] = field(default_factory=dict)
    #: whether the decision took effect (a severity change does at once)
    applied: Optional[bool] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "tick": self.tick,
            "action": self.action,
            "reason": self.reason,
            "signals": dict(self.signals),
            "applied": self.applied,
        }


class Controller:
    """Deterministic per-epoch control: the overload severity."""

    def __init__(
        self,
        policy: Optional[ControlPolicy] = None,
        *,
        bus: Optional[SignalBus] = None,
    ) -> None:
        self.policy = policy or ControlPolicy()
        self.bus = bus or SignalBus(window=self.policy.window)
        self.severity = 0.0
        self.ticks = 0
        #: the host's trace context (the cluster coordinator overwrites
        #: this with its own, so decisions land in the same trace as the
        #: epochs that caused them)
        self.tracer = TraceContext("ctl", enabled=False)
        self.decisions: List[Decision] = []

    # -- signal feeding (hosts call through to the bus) ---------------------

    def observe_epoch(self, *, wall_seconds: float) -> None:
        """Absorb one epoch drive's wall clock."""
        self.bus.observe_epoch_wall(wall_seconds)

    def observe_queue_depth(self, depth: int, limit: int) -> None:
        self.bus.observe_queue_depth(depth, limit)

    # -- the tick ------------------------------------------------------------

    def tick(self) -> List[Decision]:
        """One epoch-boundary evaluation.  Returns the new decisions;
        the host pushes ``severity`` into its admission policy."""
        self.ticks += 1
        fired: List[Decision] = []

        severity, why = self._admission_severity()
        if severity is None:
            # both windows empty: *no signal*, not "severity 0" — hold
            # the previous level rather than reading silence as
            # recovery (an admission decision needs evidence)
            severity = self.severity
        if round(severity, 6) != round(self.severity, 6):
            fired.append(
                Decision(
                    tick=self.ticks,
                    action="admission",
                    reason=why,
                    signals={
                        "severity": severity,
                        "previous": self.severity,
                    },
                    applied=True,
                )
            )
        self.severity = severity
        self.decisions.extend(fired)
        for decision in fired:
            self.tracer.event(
                "decision", component="control",
                action=decision.action, tick=decision.tick,
                reason=decision.reason,
            )
        return fired

    def _admission_severity(self) -> "tuple[Optional[float], str]":
        """The overload severity, or ``None`` when neither signal
        window holds an observation yet (an empty window's percentile
        is ``None``, never 0.0 — see
        :meth:`~repro.control.signals.SignalWindow.percentile`)."""
        policy = self.policy
        wall_p = self.bus.percentile("epoch_wall", policy.latency_percentile)
        queue_p = self.bus.percentile("queue_fraction", 90.0)
        if wall_p is None and queue_p is None:
            return None, "no signal: both windows empty"
        latency_sev = 0.0
        if wall_p is not None and wall_p > policy.latency_bound:
            # 0 at the bound, 1 at twice the bound
            latency_sev = min(1.0, wall_p / policy.latency_bound - 1.0)
        queue_sev = 0.0
        if queue_p is not None and queue_p >= policy.queue_high:
            span = 1.0 - policy.queue_high
            queue_sev = (
                1.0
                if span <= 0
                else min(1.0, (queue_p - policy.queue_high) / span)
            )
        severity = max(latency_sev, queue_sev)
        why = (
            f"epoch_wall p{policy.latency_percentile:g}="
            f"{'-' if wall_p is None else format(wall_p, '.4f')}s "
            f"(bound {policy.latency_bound:g}s), "
            f"queue p90={'-' if queue_p is None else format(queue_p, '.3f')} "
            f"(high {policy.queue_high:g})"
        )
        return severity, why

    # -- reporting ----------------------------------------------------------

    def decision_log(self) -> List[Dict[str, object]]:
        return [decision.to_json() for decision in self.decisions]

    def snapshot(self) -> Dict[str, object]:
        return {
            "schema": "repro.control/controller",
            "schema_version": 2,
            "policy": self.policy.describe(),
            "ticks": self.ticks,
            "severity": self.severity,
            "decisions": self.decision_log(),
            "signals": self.bus.snapshot(),
        }
