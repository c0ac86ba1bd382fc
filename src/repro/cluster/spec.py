"""The declarative cluster description: :class:`ClusterSpec`.

A spec is everything needed to stand up — or *re*-stand up — a
verification cluster: how to build the network substrate, which promise
policies to register, how the policy space is placed across workers,
what the admission plane does under load, and how workers are isolated
(``"process"`` for real OS processes over multiprocessing pipes,
``"inline"`` for same-process workers speaking the identical command
protocol — the deterministic configuration tests and benchmarks pin
against).

The same spec also builds the *unsharded reference*
(:meth:`ClusterSpec.build_monitor`): one plain
:class:`~repro.audit.monitor.Monitor` over an identically constructed
network — the byte-parity oracle every cluster trail is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Tuple

from repro.audit.monitor import Monitor
from repro.audit.store import EvidenceStore
from repro.crypto.keystore import KeyStore

from repro.cluster.admission import AdmissionPolicy, make_admission
from repro.cluster.placement import Placement, make_placement

__all__ = ["ChaosSpec", "ClusterSpec", "PolicySpec"]


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic failure injection: one worker fails at one epoch.

    ``after`` counts the worker's *streamed* slice events before it
    fails — ``0`` dies right after planning (nothing streamed), ``2``
    dies with two events already folded (the rest is backfilled).
    ``mode="kill"`` dies instantly (SIGKILL on the process transport, a
    :class:`~repro.cluster.worker.WorkerDied` unwind inline);
    ``mode="hang"`` sleeps ``hang_seconds`` mid-slice so only the
    coordinator's deadline/heartbeat detector can reap it — process
    transport only (an inline worker would hang the coordinator too).
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

    For the process transport, prefer picklable ingredients: promise
    templates and module-level factories for ``spec``, and *named*
    choosers (:mod:`repro.audit.choosers`) in ``options`` — live
    closures only work because workers fork from the coordinator, and
    they cannot survive a worker restart on a spawn-based platform.
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
    :class:`~repro.bgp.network.BGPNetwork` substrate — called once per
    worker (each worker owns a fully independent replica) and once for
    the reference monitor.  It must be deterministic: replicas stay in
    lockstep because they apply identical churn to identical networks.

    ``placement`` is a :class:`~repro.cluster.placement.Placement`, a
    strategy name (``"static"``/``"consistent"``/``"hotsplit"``, built
    over ``workers`` shard slots), or ``None`` (static).  ``admission``
    likewise resolves through
    :func:`~repro.cluster.admission.make_admission`.
    """

    network: Callable[[], object]
    policies: Tuple[PolicySpec, ...] = ()
    workers: int = 2
    placement: object = None
    admission: object = None
    transport: str = "process"  # "process" | "inline"
    queue_depth: int = 64
    rng_seed: object = 2011
    key_bits: int = 512
    max_work: Optional[int] = None
    #: eviction bound of the coordinator's folded trail, and of each
    #: worker's own re-recorded slice (violations stay pinned)
    max_events: Optional[int] = None
    parity_sample: int = 0
    #: per-epoch wall-clock budget: a worker that has not returned its
    #: epoch summary this many seconds after the epoch command is posted
    #: is declared dead, killed, and respawned (``None`` disables)
    epoch_deadline: Optional[float] = None
    #: when > 0, workers emit :class:`~repro.cluster.requests.Heartbeat`
    #: messages between slice chunks; silence longer than five intervals
    #: reaps the worker even before the epoch deadline
    heartbeat_interval: float = 0.0
    #: more than this many worker deaths in a single epoch is a loud
    #: :class:`~repro.cluster.cluster.ClusterError` instead of a respawn
    max_failures_per_epoch: int = 1
    #: how many queued churn requests may ride a single epoch sequence
    coalesce_max: int = 16
    #: owned slice events per streamed chunk (1 = stream every event)
    stream_batch: int = 8
    #: deterministic failure injection (tests / CI chaos gate)
    chaos: Optional[ChaosSpec] = None
    #: the self-regulating control plane: ``None`` (off), ``True``
    #: (default :class:`~repro.control.controller.ControlPolicy`), or a
    #: ``ControlPolicy`` instance.  When set, the coordinator runs a
    #: :class:`~repro.control.controller.Controller` fed from epoch
    #: outcomes and admission-queue depth, ticked
    #: after every ``pump()`` — its decisions drive the same
    #: ``reshard``/``rebalance`` seams the CLI uses, so control stays
    #: inside the byte-parity oracle
    controller: object = None
    #: accountability ledger: ``None`` (off), ``True`` (default
    #: :class:`~repro.ledger.levels.LedgerPolicy`), or a ``LedgerPolicy``
    #: instance.  When set, the coordinator runs a
    #: :class:`~repro.ledger.ledger.TrustLedger` over the folded central
    #: trail and ships its settled trust snapshot to every worker with
    #: each epoch command; workers install a matching
    #: :class:`~repro.ledger.feedback.VerificationIntensity`, so the
    #: co-plan (and with it round allocation) stays identical everywhere
    ledger: object = None
    #: causal tracing (:mod:`repro.obs`): spans and events on the
    #: coordinator and every worker.  Timing is trace metadata only —
    #: the evidence trail is byte-identical either way (pinned in
    #: ``tests/test_obs.py``)
    trace: bool = True
    #: where the coordinator's flight recorder dumps JSONL on a worker
    #: reap, a parity failure or a :class:`ClusterError` (``None`` =
    #: record but never dump)
    flight_dump: Optional[str] = None
    #: directory of the coordinator's write-ahead journal
    #: (:mod:`repro.journal`): ``None`` disables durability; a path
    #: makes every fold seam durable and lets a restarted coordinator
    #: ``recover()`` to the last commit boundary
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
        if self.stream_batch < 1:
            raise ValueError("stream_batch must be >= 1")
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
        if self.controller is True:
            from repro.control.controller import ControlPolicy

            object.__setattr__(self, "controller", ControlPolicy())
        if self.ledger is True:
            from repro.ledger.levels import LedgerPolicy

            object.__setattr__(self, "ledger", LedgerPolicy())

    # -- resolution ----------------------------------------------------------

    def resolved_placement(self) -> Placement:
        return make_placement(self.placement, self.workers)

    def resolved_admission(self) -> AdmissionPolicy:
        return make_admission(self.admission)

    def with_transport(self, transport: str) -> "ClusterSpec":
        return replace(self, transport=transport)

    # -- construction --------------------------------------------------------

    def build(self):
        """Build (and start) the :class:`~repro.cluster.cluster.Cluster`."""
        from repro.cluster.cluster import Cluster

        return Cluster(self)

    def build_keystore(self) -> KeyStore:
        """A keystore identical to every worker's (deterministic keys
        from the shared seed)."""
        return KeyStore(seed=self.rng_seed, key_bits=self.key_bits)

    def build_monitor(self) -> Monitor:
        """The unsharded reference: one plain monitor, same network,
        same policies, same seeds — the parity oracle.  With a
        ``ledger`` configured, the monitor gets its own
        :class:`~repro.ledger.ledger.TrustLedger` over its own store
        (exposed as ``monitor.ledger``) plus a bound
        :class:`~repro.ledger.feedback.VerificationIntensity`, settling
        at the same plan-time boundary the cluster coordinator settles
        at — so the reference plans with the same trust snapshot as the
        co-planning workers."""
        keystore = self.build_keystore()
        store = EvidenceStore(keystore, max_events=self.max_events)
        intensity = None
        ledger = None
        if self.ledger is not None:
            from repro.ledger import TrustLedger, VerificationIntensity

            ledger = TrustLedger(self.ledger).attach(store)
            intensity = VerificationIntensity(
                self.ledger, seed=self.rng_seed, ledger=ledger
            )
        monitor = Monitor(
            keystore,
            rng_seed=self.rng_seed,
            max_work_per_epoch=self.max_work,
            store=store,
            intensity=intensity,
        ).attach(self.network())
        monitor.ledger = ledger
        for policy in self.policies:
            policy.install(monitor)
        return monitor
