"""The churn-scenario driver: registered workloads through a Monitor.

Churn scenarios are registered in :mod:`repro.pvr.scenarios`
(``register_churn``) as pure data — a network builder, promise
policies, a script of churn steps.  :func:`run_churn` is the execution
engine shared by the ``python -m repro.audit`` CLI and the tests: it
attaches a monitor, audits the
converged initial state, then replays the churn script with one
verification epoch after each step (and a final full-resync sweep that
measures steady-state cache reuse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.crypto.keystore import KeyStore

from repro.audit.events import EpochReport
from repro.audit.monitor import Monitor


@dataclass
class ChurnRunResult:
    """Everything observable after one churn-scenario run."""

    scenario: str
    monitor: Monitor
    epochs: List[EpochReport] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(len(e.events) for e in self.epochs)

    @property
    def verified(self) -> int:
        return sum(e.verified for e in self.epochs)

    @property
    def reused(self) -> int:
        return sum(e.reused for e in self.epochs)

    @property
    def signatures(self) -> int:
        return sum(e.signatures for e in self.epochs)

    @property
    def verifications(self) -> int:
        return sum(e.verifications for e in self.epochs)

    def reuse_ratio(self) -> float:
        return self.reused / self.events if self.events else 0.0

    def violation_free(self) -> bool:
        return self.monitor.evidence.violation_free()

    def summary(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "epochs": len(self.epochs),
            "events": self.events,
            "verified": self.verified,
            "reused": self.reused,
            "reuse_ratio": self.reuse_ratio(),
            "signatures": self.signatures,
            "verifications": self.verifications,
            "violations": len(self.monitor.evidence.violations()),
            "pending": len(self.monitor.pending()),
        }


def run_churn(
    scenario: Union[str, object],
    keystore: Optional[KeyStore] = None,
    *,
    key_bits: int = 512,
    rng_seed: object = 2011,
    max_work: Optional[int] = None,
) -> ChurnRunResult:
    """Run a churn scenario (by name or object) end to end.

    Epoch schedule: one epoch for the converged initial state, one after
    each churn step, and — when the scenario asks for it — one full
    resync sweep at the end (the steady-state reuse measurement).
    """
    from repro.pvr import scenarios as scenario_registry

    if isinstance(scenario, str):
        scenario = scenario_registry.get_churn(scenario)
    network = scenario.build()
    monitor = Monitor(
        keystore if keystore is not None else KeyStore(
            seed=rng_seed, key_bits=key_bits
        ),
        max_work_per_epoch=max_work,
        rng_seed=rng_seed,
    ).attach(network)
    for asn, spec, options in scenario.policies:
        monitor.policy(asn, spec, **options)

    result = ChurnRunResult(scenario=scenario.name, monitor=monitor)
    result.epochs.append(monitor.run_epoch())
    for step in scenario.churn:
        step(network)
        network.run_to_quiescence()
        result.epochs.append(monitor.run_epoch())
    if scenario.resync_after:
        monitor.resync()
        result.epochs.append(monitor.run_epoch())
    # a work bound may have deferred pairs past the scripted epochs;
    # drain them so every registered policy is audited before the run
    # reports its verdict (nothing in the tail may go unchecked)
    result.epochs.extend(monitor.run_until_idle())
    return result
