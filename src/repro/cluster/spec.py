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
from repro.ledger import LedgerPolicy, TrustLedger

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
    unwind inline); ``mode="hang"`` sleeps mid-batch, longer than the
    pool's :data:`~repro.cluster.pool.SILENCE_LIMIT_S`, so only the
    coordinator's silence rule can reap it — process transport only (an
    inline worker would hang the coordinator too).
    """

    worker: int
    epoch: int
    mode: str = "kill"  # "kill" | "hang"
    after: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("kill", "hang"):
            raise ValueError(
                f"chaos mode must be 'kill' or 'hang', got {self.mode!r}"
            )
        for name, least in (("worker", 0), ("epoch", 1), ("after", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


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
    It must be deterministic: a recovered coordinator re-serves
    journaled churn on a freshly built network.
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
    #: how many queued churn requests may ride a single epoch sequence
    coalesce_max: int = 16
    #: deterministic failure injection (tests / CI chaos gate)
    chaos: Optional[ChaosSpec] = None
    #: accountability ledger: ``None`` (off), ``True`` (default
    #: :class:`~repro.ledger.levels.LedgerPolicy`), or a ``LedgerPolicy``
    #: instance.  When set, a :class:`~repro.ledger.ledger.TrustLedger`
    #: subscribes to the monitor's evidence store
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
    #: checkpoint the coordinator every N commit boundaries (a churn
    #: group or an adjudication), appended with the events recorded
    #: since the previous one; under ``max_events`` each checkpoint
    #: carries the bounded store and rewrites the file.  0 checkpoints
    #: only after a failed group, so a recovery re-serves every group
    #: since the genesis: the cadence bounds the re-serve
    journal_checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.transport not in ("process", "inline"):
            raise ValueError(
                f"transport must be 'process' or 'inline', "
                f"got {self.transport!r}"
            )
        if self.placement not in (None, "static", "consistent", "hotsplit"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_work is not None and self.max_work < 1:
            raise ValueError(f"max_work must be >= 1, got {self.max_work}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.parity_sample < 0:
            raise ValueError(
                f"parity_sample must be >= 0, got {self.parity_sample}"
            )
        if self.coalesce_max < 1:
            raise ValueError(
                f"coalesce_max must be >= 1, got {self.coalesce_max}"
            )
        if self.journal_checkpoint_every < 0:
            raise ValueError(
                f"journal_checkpoint_every must be >= 0, "
                f"got {self.journal_checkpoint_every}"
            )
        if self.chaos is not None and self.chaos.worker >= self.workers:
            raise ValueError(
                f"chaos names worker {self.chaos.worker}, but the cluster "
                f"has only {self.workers} workers"
            )
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
            object.__setattr__(self, "ledger", LedgerPolicy())
        elif self.ledger is not None and not isinstance(
            self.ledger, LedgerPolicy
        ):
            raise TypeError(
                f"ledger must be None, True or a LedgerPolicy, "
                f"got {self.ledger!r}"
            )

    # -- construction --------------------------------------------------------

    def build(self):
        """Build (and start) the :class:`~repro.cluster.cluster.Cluster`."""
        from repro.cluster.cluster import Cluster

        return Cluster(self)

    def build_keystore(self) -> KeyStore:
        """The deterministic keys every monitor built from this spec
        holds (derived from the shared seed)."""
        return KeyStore(seed=self.rng_seed, key_bits=self.key_bits)

    def build_monitor(self, recovered=None, *, keystore=None) -> Monitor:
        """One plain monitor over the spec's network, policies and
        seeds: the coordinator's planner, and — driven serially — the
        parity oracle.  With a ``ledger`` configured, the monitor gets
        a :class:`~repro.ledger.ledger.TrustLedger` over its store
        (exposed as ``monitor.ledger``, ``None`` otherwise).

        ``recovered`` (a :class:`~repro.journal.recovery.RecoveredState`)
        rebuilds the monitor at a journal's last checkpoint instead: the
        restored store and ledger, the checkpointed network (or a
        factory-built one) and planning state.  The commands journaled
        after it are the coordinator's to re-serve.

        ``keystore`` (default: a fresh :meth:`build_keystore`) is the
        store a fresh monitor registers its parties in: the coordinator
        passes the one its pool forked with.  A recovered monitor uses
        the store recovery adopted the journal's keys into."""
        if recovered is not None:
            store, ledger = recovered.store, recovered.ledger
            network = (
                pickle.loads(recovered.network)
                if recovered.network is not None
                else self.network()
            )
        else:
            store = EvidenceStore(
                keystore if keystore is not None else self.build_keystore(),
                max_events=self.max_events,
            )
            ledger = None
            if self.ledger is not None:
                ledger = TrustLedger(self.ledger).attach(store)
            network = self.network()
        monitor = Monitor(
            store.keystore,
            rng_seed=self.rng_seed,
            max_work_per_epoch=self.max_work,
            store=store,
        ).attach(network)
        monitor.ledger = ledger
        for policy in self.policies:
            policy.install(monitor)
        if recovered is not None and recovered.planning is not None:
            monitor.restore_planning(*recovered.planning)
        return monitor
