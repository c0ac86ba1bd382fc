"""The declarative cluster description: :class:`ClusterSpec`.

A spec is everything needed to stand up — or *re*-stand up — a
verification cluster: how to build the network substrate, which promise
policies to register, how many round workers to run, how deep the
write queue is, and how workers are isolated
(``"process"`` for real OS processes over multiprocessing pipes,
``"inline"`` for the same round loop in-process — the deterministic
configuration tests pin against).

The same spec also builds the *unsharded reference*
(:meth:`ClusterSpec.build_monitor`): one plain
:class:`~repro.audit.monitor.Monitor` over an identically constructed
network — the byte-parity oracle every cluster trail is checked
against, and the very monitor the coordinator plans with.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.crypto.keystore import KeyStore
from repro.pvr.scenarios import apply_step

__all__ = ["ChaosSpec", "ClusterSpec", "PolicySpec"]


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic failure injection: one worker fails at one epoch.

    ``after`` counts the results the worker streams out of that
    epoch's batch before it fails — ``0`` dies before its first round,
    ``2`` dies with two results delivered (the rest is re-run on a
    survivor); a worker sent fewer than ``after`` rounds that epoch
    never fails.  ``mode="kill"`` dies instantly (SIGKILL on the
    process transport, a :class:`~repro.cluster.worker.WorkerDied`
    unwind inline); ``mode="hang"`` sleeps ``hang_seconds`` mid-batch so
    only the coordinator's deadline/silence detector can reap it —
    process transport only (an inline worker would hang the coordinator
    too).
    """

    worker: int
    epoch: int
    mode: str = "kill"  # "kill" | "hang"
    after: int = 0
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.mode not in ("kill", "hang"):
            raise ValueError(
                f"chaos mode must be 'kill' or 'hang', got {self.mode!r}"
            )
        if self.worker < 0 or self.epoch < 1 or self.after < 0:
            raise ValueError(
                "chaos needs worker >= 0, epoch >= 1 and after >= 0"
            )


@dataclass(frozen=True)
class PolicySpec:
    """One promise policy, as data: ``monitor.policy(asn, spec, **options)``.

    Policies live on the coordinator's monitor only.  A ``chooser`` in
    ``options`` is a :mod:`repro.audit.choosers` registry name, which
    pool workers resolve for themselves; ``install`` raises
    :class:`TypeError` for a callable and :class:`KeyError` for an
    unknown name.
    """

    asn: str
    spec: object
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def install(self, monitor: Monitor) -> None:
        monitor.policy(self.asn, self.spec, **self.options)


@dataclass(frozen=True)
class ClusterSpec:
    """A declarative description of one verification cluster.

    ``network`` is a zero-argument factory building the
    :class:`~repro.bgp.network.BGPNetwork` substrate — called once for
    the coordinator's monitor (and again by a recovery that has no
    checkpointed network to restore) and once for a reference monitor.
    It must be deterministic: a recovered coordinator re-applies
    journaled churn to a freshly built network.
    """

    network: Callable[[], object]
    policies: Tuple[PolicySpec, ...] = ()
    workers: int = 2
    #: no effect, recorded nowhere: round workers hold no per-pair
    #: state, so there is nothing to place.  Accepted (``None`` or a
    #: historical strategy name) only because ``benchmarks/e2e`` still
    #: spells ``placement="consistent"``
    placement: Optional[str] = None
    transport: str = "process"  # "process" | "inline"
    #: how many writes (churn, adjudication) may wait; one more is
    #: refused at the door.  Reads never queue
    queue_depth: int = 64
    rng_seed: object = 2011
    key_bits: int = 512
    max_work: Optional[int] = None
    #: eviction bound of the evidence trail (violations stay pinned)
    max_events: Optional[int] = None
    parity_sample: int = 0
    #: per-epoch wall-clock budget: a worker that has not returned its
    #: whole batch this many seconds after it was posted is declared
    #: dead, killed, and replaced (``None`` disables)
    epoch_deadline: Optional[float] = None
    #: when > 0, a busy worker that sends no result frame for five
    #: intervals is reaped even before the epoch deadline (every
    #: finished round is a frame, so a frame is the heartbeat)
    heartbeat_interval: float = 0.0
    #: more than this many worker deaths in a single epoch is a loud
    #: :class:`~repro.cluster.cluster.ClusterError` instead of a respawn
    max_failures_per_epoch: int = 1
    #: how many queued churn requests may ride a single epoch sequence
    coalesce_max: int = 16
    #: deterministic failure injection (tests / CI chaos gate)
    chaos: Optional[ChaosSpec] = None
    #: accountability ledger: ``None`` (off), ``True`` (default
    #: :class:`~repro.ledger.levels.LedgerPolicy`), or a ``LedgerPolicy``
    #: instance.  When set, the monitor records into a
    #: :class:`~repro.ledger.ledger.TrustLedger` and plans with a bound
    #: :class:`~repro.ledger.feedback.VerificationIntensity`
    ledger: object = None
    #: causal tracing (:mod:`repro.obs`): spans and events on the
    #: coordinator.  Timing is trace metadata only — the evidence trail
    #: is byte-identical either way (pinned in ``tests/test_obs.py``)
    trace: bool = True
    #: where the coordinator's flight recorder dumps JSONL on a worker
    #: reap, a parity failure or a :class:`ClusterError` (``None`` =
    #: record but never dump)
    flight_dump: Optional[str] = None
    #: directory of the coordinator's write-ahead journal
    #: (:mod:`repro.journal`): ``None`` disables durability; a path
    #: makes every state change durable and lets a restarted
    #: coordinator recover to the last commit boundary
    journal: Optional[str] = None
    #: records per journal segment before rotation
    journal_segment_records: int = 4096
    #: checkpoint (full state capture + segment compaction) every N
    #: commits; 0 disables checkpointing
    journal_checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.transport not in ("process", "inline"):
            raise ValueError(
                f"transport must be 'process' or 'inline', "
                f"got {self.transport!r}"
            )
        if self.placement not in (None, "static", "consistent", "hotsplit"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.parity_sample < 0:
            raise ValueError("parity_sample must be >= 0")
        if self.epoch_deadline is not None and self.epoch_deadline <= 0:
            raise ValueError("epoch_deadline must be positive or None")
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if self.max_failures_per_epoch < 0:
            raise ValueError("max_failures_per_epoch must be >= 0")
        if self.coalesce_max < 1:
            raise ValueError("coalesce_max must be >= 1")
        if self.journal_segment_records < 2:
            raise ValueError("journal_segment_records must be >= 2")
        if self.journal_checkpoint_every < 0:
            raise ValueError("journal_checkpoint_every must be >= 0")
        if (
            self.chaos is not None
            and self.chaos.mode == "hang"
            and self.transport != "process"
        ):
            raise ValueError(
                "chaos mode 'hang' requires the process transport "
                "(an inline worker would hang the coordinator too)"
            )
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.ledger is True:
            from repro.ledger.levels import LedgerPolicy

            object.__setattr__(self, "ledger", LedgerPolicy())

    # -- construction --------------------------------------------------------

    def build(self):
        """Build (and start) the :class:`~repro.cluster.cluster.Cluster`."""
        from repro.cluster.cluster import Cluster

        return Cluster(self)

    def build_keystore(self) -> KeyStore:
        """The deterministic keys every monitor built from this spec
        holds (derived from the shared seed)."""
        return KeyStore(seed=self.rng_seed, key_bits=self.key_bits)

    def build_monitor(self, recovered=None) -> Monitor:
        """One plain monitor over the spec's network, policies and
        seeds: the coordinator's planner, and — driven serially — the
        parity oracle.  With a ``ledger`` configured, the monitor gets
        a :class:`~repro.ledger.ledger.TrustLedger` over its store
        (exposed as ``monitor.ledger``, ``None`` otherwise) plus a bound
        :class:`~repro.ledger.feedback.VerificationIntensity`, settling
        at every plan.

        ``recovered`` (a :class:`~repro.journal.recovery.RecoveredState`)
        rebuilds the monitor at a journal's last commit boundary
        instead: the replayed store and ledger, the checkpointed network
        (or a factory-built one) with the journaled churn suffix
        re-applied, and the replayed planning state."""
        if recovered is not None:
            store, ledger = recovered.store, recovered.ledger
            network = (
                pickle.loads(recovered.network)
                if recovered.network is not None
                else self.network()
            )
        else:
            store = EvidenceStore(
                self.build_keystore(), max_events=self.max_events
            )
            ledger = None
            if self.ledger is not None:
                from repro.ledger import TrustLedger

                ledger = TrustLedger(self.ledger).attach(store)
            network = self.network()
        intensity = None
        if ledger is not None:
            from repro.ledger import VerificationIntensity

            intensity = VerificationIntensity(
                self.ledger, seed=self.rng_seed, ledger=ledger
            )
        monitor = Monitor(
            store.keystore,
            rng_seed=self.rng_seed,
            max_work_per_epoch=self.max_work,
            store=store,
            intensity=intensity,
        ).attach(network)
        monitor.ledger = ledger
        for policy in self.policies:
            policy.install(monitor)
        if recovered is not None:
            for steps in recovered.churn_suffix:
                for step in steps:
                    apply_step(step, network)
                network.run_to_quiescence()
            monitor.restore_planning(
                recovered.epoch, recovered.round_counter, recovered.cache
            )
        return monitor
