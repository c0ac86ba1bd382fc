"""The continuous audit monitor: churn in, verdict events out.

:class:`Monitor` is the audit plane's public API.  One monitor attaches
to one running :class:`~repro.bgp.network.BGPNetwork`; promise policies
are registered per AS; every BGP decision change at a monitored AS marks
its (AS, prefix) tuple *dirty*; and :meth:`Monitor.run_epoch` coalesces
the accumulated churn into one verification epoch:

* **bounded work** — an epoch freshly verifies at most ``max_work``
  tuples; overflow stays queued and the next epoch resumes exactly
  where this one stopped (already-audited tuples of a deferred pair
  are neither revisited nor re-emitted, so deferral never repeats
  work — it only spreads it across epochs);
* **incremental reuse** — a tuple whose contract and announced inputs
  are unchanged since its last verification is served from the cache
  with *zero* signature/verification operations, the paper's answer to
  "performed for every single BGP update" at line rate;
* **deterministic replay** — commitment nonces derive from
  ``(rng_seed, round)``, so any emitted event can be reproduced by a
  one-shot :class:`~repro.pvr.engine.VerificationSession` with the same
  spec, round, inputs and randomness (and ``batching=True``, the audit
  plane's §3.8 protocol), byte for byte.

Usage::

    monitor = Monitor(keystore).attach(network)
    monitor.policy("A", ShortestRoute(), recipients=("B",))
    ... BGP churn ...
    network.run_to_quiescence()
    epoch = monitor.run_epoch()
    monitor.evidence.violations()

Epochs must run while the network is quiescent: verification rounds
share the simulated links with BGP traffic, so they cannot execute
inside the BGP event loop.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.bgp.network import BGPNetwork
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.promises.spec import Promise, ShortestRoute
from repro.pvr.minimum import DEFAULT_MAX_LENGTH
from repro.pvr.session import PromiseSpec, SessionReport

from repro.audit.choosers import ChooserRef, resolve as resolve_chooser
from repro.audit.events import (
    EpochOutcome,
    EpochReport,
    VerdictEvent,
    reused_event,
)
from repro.audit.policy import (
    AuditPolicy,
    SpecSource,
    WorkItem,
    single_recipient_item,
)
from repro.audit.store import EvidenceStore
from repro.audit.wire import (
    RoundResult,
    RoundStats,
    round_randomness,
    run_wire_round,
)
from repro.obs.trace import TraceContext

#: cache key: one (AS, prefix, policy, recipients) audited tuple
TupleKey = Tuple[str, Optional[Prefix], str, Tuple[str, ...]]


@dataclass
class PlannedItem:
    """One scheduled tuple of an epoch plan.

    Fresh work carries a pre-allocated ``round`` (so an external
    executor — the sharded service — reproduces exactly the nonce
    stream a serial :meth:`Monitor.run_epoch` would have used); a cache
    hit instead carries ``previous``, the verdict event it re-emits.
    """

    item: WorkItem
    chooser: ChooserRef
    fingerprint: Tuple
    round: Optional[int] = None
    previous: Optional[VerdictEvent] = None

    @property
    def fresh(self) -> bool:
        return self.previous is None


@dataclass
class EpochPlan:
    """The deterministic schedule of one epoch, before any crypto runs.

    ``entries`` are in canonical scan order (dirty pairs in churn order,
    policies in registration order) — the order round numbers and event
    sequence numbers are allocated in, whatever executes the plan.
    """

    epoch: int
    entries: List[PlannedItem] = field(default_factory=list)
    deferred: List[Tuple[str, Prefix]] = field(default_factory=list)

    def fresh_entries(self) -> List[Tuple[int, PlannedItem]]:
        """(plan position, entry) for every entry needing verification."""
        return [(i, e) for i, e in enumerate(self.entries) if e.fresh]


def tuple_key(item: WorkItem) -> TupleKey:
    return (item.asn, item.prefix, item.policy, item.spec.recipients)


def absorb_verdict(
    cache: Dict[TupleKey, Tuple[Tuple, VerdictEvent]],
    item: WorkItem,
    fingerprint: Tuple,
    event: VerdictEvent,
) -> None:
    """Fold one freshly verified tuple into a reuse cache: an ok
    verdict caches (under ``fingerprint``, the planner's
    ``(item.fingerprint(), chooser)``), a violation evicts.  The one
    rule, applied live by the monitor and by journal replay rebuilding
    a monitor's cache."""
    key = tuple_key(item)
    if event.ok():
        cache[key] = (fingerprint, event)
    else:
        # never serve a violation from the cache: a verdict that
        # failed (a cheat, or a dropped/tampered wire message) is not
        # reusable — the next audit of this tuple (further churn, or
        # an explicit resync()) re-proves it fresh, so a transient
        # transport fault cannot poison the incremental path
        cache.pop(key, None)


class MonitorError(RuntimeError):
    """The monitor was used before :meth:`Monitor.attach`, or a policy
    could not be materialized."""


class MergeError(RuntimeError):
    """A plan entry has no outcome, or an outcome contradicts its plan."""


def _check_work_bound(max_work: Optional[int]) -> Optional[int]:
    """A work bound of zero (or less) would make every epoch a no-op
    and livelock ``run_until_idle`` — reject it up front."""
    if max_work is not None and max_work < 1:
        raise ValueError(f"work bound must be >= 1, got {max_work}")
    return max_work


class Monitor:
    """A long-lived, policy-driven verification monitor.

    ``max_work_per_epoch`` bounds fresh verifications per epoch
    (``None`` = unbounded); ``rng_seed`` roots the deterministic
    commitment-nonce stream.

    ``intensity`` is the optional trust-aware sampling policy
    (:class:`~repro.ledger.feedback.VerificationIntensity`, duck-typed:
    ``begin_epoch(epoch)`` + ``should_verify(asn, prefix, policy,
    recipients, epoch=)``).  :meth:`plan_epoch` consults it per fresh
    tuple: a sampled-out tuple allocates no round, emits no event and
    spends no crypto this epoch (it is treated as audited for the churn
    burst).  Cache reuse is free and therefore never sampled away.  At
    sampling rate 1.0 the hook is a strict identity — the plan and the
    evidence trail are byte-for-byte those of a monitor with no
    intensity installed.
    """

    def __init__(
        self,
        keystore: Optional[KeyStore] = None,
        *,
        max_work_per_epoch: Optional[int] = None,
        rng_seed: object = 2011,
        store: Optional[EvidenceStore] = None,
        intensity: object = None,
        tracer: Optional[TraceContext] = None,
    ) -> None:
        self.keystore = keystore if keystore is not None else KeyStore(
            seed=rng_seed, key_bits=512
        )
        self.max_work_per_epoch = _check_work_bound(max_work_per_epoch)
        self.rng_seed = rng_seed
        self.intensity = intensity
        # the obs seam: hosts (serve service, cluster coordinator) hand
        # the monitor their own context so plan/epoch spans share one trace
        self.tracer = tracer if tracer is not None else TraceContext("m")
        self.network: Optional[BGPNetwork] = None
        self._detached = False
        self.evidence = store if store is not None else EvidenceStore(
            self.keystore
        )
        self.epoch = 0
        self._round_counter = 0
        self._policy_counter = 0
        self._policies: List[AuditPolicy] = []
        self._hooked: Dict[str, Tuple[Callable, Callable]] = {}
        # dirty pair -> None (fresh churn: audit every tuple) or the set
        # of cache keys already audited this burst (a deferred pair
        # resumes where it left off instead of replaying)
        self._dirty: Dict[Tuple[str, Prefix], Optional[set]] = {}
        self._cache: Dict[TupleKey, Tuple[Tuple, VerdictEvent]] = {}

    # -- wiring --------------------------------------------------------------

    def attach(self, network: BGPNetwork) -> "Monitor":
        """Bind this monitor to ``network`` and register every AS's key."""
        if self.network is not None:
            raise MonitorError("monitor is already attached")
        if self._detached:
            raise MonitorError(
                "a detached monitor cannot re-attach; build a fresh one"
            )
        self.network = network
        for asn in network.as_names():
            self.keystore.register(asn)
        return self

    def _require_network(self) -> BGPNetwork:
        if self.network is None:
            raise MonitorError("monitor is not attached to a network")
        return self.network

    def policy(
        self,
        asn: str,
        spec: SpecSource,
        *,
        recipients: Optional[Tuple[str, ...]] = None,
        prefixes: Optional[Tuple[Prefix, ...]] = None,
        name: Optional[str] = None,
        variant: str = "auto",
        max_length: int = DEFAULT_MAX_LENGTH,
        chooser: ChooserRef = None,
        audit_now: bool = True,
    ) -> AuditPolicy:
        """Register a promise policy for ``asn`` and arm its churn hook.

        ``spec`` is a promise template, a ``providers -> Promise``
        factory, or a full :class:`~repro.pvr.session.PromiseSpec`;
        ``recipients`` restricts the neighbors covered (per-neighbor
        overrides).  ``chooser`` is a name from the
        :mod:`repro.audit.choosers` registry, resolved here: an unknown
        name raises :class:`KeyError` and a callable :class:`TypeError`
        before anything is registered, not in the middle of an epoch.
        With ``audit_now`` (the default) every prefix the AS currently
        routes is marked dirty so the first epoch audits the present
        state; ``audit_now=False`` only arms the hook, so epochs cover
        decisions made from now on.
        """
        network = self._require_network()
        resolve_chooser(chooser)
        router = network.router(asn)
        if name is None:
            # a monotonic counter, so names (the evidence-store and
            # cache keys) stay unique across remove_policy()
            name = f"{asn}/{self._describe(spec)}#{self._policy_counter}"
        elif any(p.name == name for p in self._policies):
            # duplicate names would share one incremental-cache slot and
            # conflate evidence queries — refuse rather than thrash
            raise ValueError(f"policy name {name!r} is already registered")
        self._policy_counter += 1
        policy = AuditPolicy(
            name=name,
            asn=asn,
            spec=spec,
            recipients=tuple(recipients) if recipients is not None else None,
            prefixes=tuple(prefixes) if prefixes is not None else None,
            variant=variant,
            max_length=max_length,
            chooser=chooser,
        )
        self._policies.append(policy)
        if asn not in self._hooked:
            def on_decision(prefix, candidates, best, asn=asn):
                self.mark(asn, prefix)

            def on_resync(peer, prefixes, asn=asn):
                # a (re-)established session resends the full table: the
                # export set toward that peer changed without any local
                # decision, so those exports must be re-audited too
                for prefix in prefixes:
                    self.mark(asn, prefix)

            router.add_decision_hook(on_decision)
            router.add_resync_hook(on_resync)
            self._hooked[asn] = (on_decision, on_resync)
        if audit_now:
            for prefix in self._known_prefixes(asn):
                if policy.covers(prefix):
                    self.mark(asn, prefix)
        return policy

    @staticmethod
    def _describe(spec: SpecSource) -> str:
        if isinstance(spec, PromiseSpec):
            return spec.promise.describe()
        if isinstance(spec, Promise):
            return spec.describe()
        return getattr(spec, "__name__", "factory")

    def policies(self) -> Tuple[AuditPolicy, ...]:
        return tuple(self._policies)

    def remove_policy(self, policy: AuditPolicy) -> None:
        """Unregister a policy.  Its churn hook stays armed (other
        policies on the AS may still need it); its cache entries are
        keyed by policy name and simply go cold."""
        self._policies.remove(policy)

    def detach(self) -> None:
        """Unhook this monitor from its network: every decision hook it
        registered is removed, so the network stops referencing (and
        waking) the monitor.  Policies, the cache and the evidence store
        survive for offline queries; re-attach is not supported — build
        a fresh monitor instead."""
        if self.network is None:
            return
        for asn, (on_decision, on_resync) in self._hooked.items():
            router = self.network.router(asn)
            router.remove_decision_hook(on_decision)
            router.remove_resync_hook(on_resync)
        self._hooked.clear()
        self.network = None
        self._detached = True

    def subscribe(self, callback: Callable[[VerdictEvent], None]) -> None:
        """Receive every verdict event as it is emitted."""
        self.evidence.subscribe(callback)

    @property
    def events(self) -> Tuple[VerdictEvent, ...]:
        return self.evidence.events()

    # -- churn tracking ------------------------------------------------------

    def mark(self, asn: str, prefix: Prefix) -> None:
        """Mark (``asn``, ``prefix``) dirty for the next epoch.  Fresh
        churn resets any resume state a deferred pair carried: every
        tuple of the pair is audited again."""
        self._dirty[(asn, prefix)] = None

    def resync(self) -> int:
        """Mark every (policy AS, known prefix) pair dirty — a full
        re-audit sweep.  With unchanged inputs the sweep is served
        entirely from the incremental cache.  Returns the pair count."""
        marked = 0
        for asn in dict.fromkeys(p.asn for p in self._policies):
            for prefix in self._known_prefixes(asn):
                self.mark(asn, prefix)
                marked += 1
        return marked

    def pending(self) -> Tuple[Tuple[str, Prefix], ...]:
        """The dirty (AS, prefix) pairs awaiting the next epoch."""
        return tuple(self._dirty)

    def _known_prefixes(self, asn: str) -> Tuple[Prefix, ...]:
        router = self._require_network().router(asn)
        seen = dict.fromkeys(router.adj_rib_in.prefixes())
        seen.update(dict.fromkeys(router.loc_rib.prefixes()))
        return tuple(seen)

    # -- durability (what a host checkpoints beside the evidence store) ------

    def planning_state(self) -> Tuple[int, int, Dict]:
        """The scheduler's own state: epoch counter, round counter and
        the reuse cache."""
        return (self.epoch, self._round_counter, dict(self._cache))

    def restore_planning(
        self, epoch: int, round_counter: int, cache: Dict
    ) -> None:
        """Adopt a :meth:`planning_state` taken between requests.  Once
        any epoch has run, every pair marked on the way here (policy
        registration, replayed churn) was audited by the epochs being
        restored, so the dirty queue empties; a monitor that never
        planned keeps its registration marks for its first epoch."""
        self.epoch = epoch
        self._round_counter = round_counter
        self._cache = dict(cache)
        if epoch:
            self._dirty.clear()

    def pickled_network(self) -> bytes:
        """Pickle the network with this monitor's churn hooks unhooked —
        the hook closures capture the live monitor and must not travel;
        they are re-armed before this returns, so the running monitor
        keeps marking dirty pairs."""
        network = self._require_network()
        try:
            for asn, (on_decision, on_resync) in self._hooked.items():
                router = network.router(asn)
                router.remove_decision_hook(on_decision)
                router.remove_resync_hook(on_resync)
            return pickle.dumps(network)
        finally:
            for asn, (on_decision, on_resync) in self._hooked.items():
                router = network.router(asn)
                router.add_decision_hook(on_decision)
                router.add_resync_hook(on_resync)

    # -- the epoch scheduler -------------------------------------------------

    def run_epoch(self, max_work: Optional[int] = None) -> EpochOutcome:
        """Coalesce accumulated churn into one verification epoch.

        At most ``max_work`` (default: the monitor's
        ``max_work_per_epoch``) tuples are *freshly* verified; cache
        reuse is free and never counts against the bound.  Work beyond
        the bound is deferred to the next epoch, which resumes exactly
        where this one stopped — already-audited tuples of a deferred
        pair are not revisited (and not re-emitted) unless new churn
        marks the pair again.

        Returns the unified :class:`~repro.audit.events.EpochOutcome`
        (one report; every :class:`~repro.audit.events.EpochReport`
        accessor is forwarded, so existing callers read it unchanged).
        """
        return EpochOutcome.single(
            self.execute_plan(self.plan_epoch(max_work))
        )

    def plan_epoch(self, max_work: Optional[int] = None) -> EpochPlan:
        """Turn the accumulated churn into a deterministic epoch plan.

        Planning does everything but the crypto: the dirty-pair scan,
        work-item materialization, the cache-reuse decision per tuple,
        round-number allocation for fresh work, and work-bound deferral
        — all state the scheduler owns is updated here.  The plan can
        then be executed serially (:meth:`execute_plan`) or fanned out
        across pool workers (:mod:`repro.cluster.pipeline`): both record
        through :func:`fold_plan`, so verdicts, rounds and sequence
        numbers cannot depend on who executes.
        """
        network = self._require_network()
        budget = (
            _check_work_bound(max_work)
            if max_work is not None
            else self.max_work_per_epoch
        )
        self.epoch += 1
        plan_span = self.tracer.begin(
            "plan", component="audit", epoch=self.epoch
        )
        if self.intensity is not None:
            # epoch boundary: the intensity settles its ledger (when it
            # owns one) so sampling sees trust as of epochs < this one
            self.intensity.begin_epoch(self.epoch)
        plan = EpochPlan(epoch=self.epoch)

        queue = list(self._dirty.items())
        self._dirty.clear()
        deferred: Dict[Tuple[str, Prefix], Optional[set]] = {}
        fresh = 0  # budget bookkeeping, O(1) per item
        for index, ((asn, prefix), resumed) in enumerate(queue):
            router = network.router(asn)
            done = set() if resumed is None else resumed
            exhausted = False
            for policy in self._policies:
                if policy.asn != asn or not policy.covers(prefix):
                    continue
                for item in policy.work_items(router, prefix):
                    key = tuple_key(item)
                    if key in done:
                        continue  # audited earlier in this churn burst
                    fingerprint = (item.fingerprint(), policy.chooser)
                    cached = self._cache.get(key)
                    reusable = cached is not None and cached[0] == fingerprint
                    if (
                        not reusable
                        and self.intensity is not None
                        and not self.intensity.should_verify(
                            item.asn,
                            item.prefix,
                            item.policy,
                            item.spec.recipients,
                            epoch=self.epoch,
                        )
                    ):
                        # trust-sampled out: no round, no entry, no
                        # budget spent — but done for this churn burst
                        done.add(key)
                        continue
                    if budget is not None and fresh >= budget and not reusable:
                        exhausted = True
                        break
                    planned = PlannedItem(
                        item=item,
                        chooser=policy.chooser,
                        fingerprint=fingerprint,
                    )
                    if reusable:
                        planned.previous = cached[1]
                    else:
                        planned.round = self._next_round()
                        fresh += 1
                    done.add(key)
                    plan.entries.append(planned)
                if exhausted:
                    break
            if exhausted:
                # the current pair resumes after its completed tuples;
                # every later pair waits untouched — deferral never
                # repeats or re-emits work
                deferred[(asn, prefix)] = done
                for pair, state in queue[index + 1:]:
                    deferred[pair] = state
                break
        if deferred:
            plan.deferred.extend(deferred)
            # deferred work re-enters the queue ahead of new churn (a
            # fresh mark() during the epoch overrides its resume state)
            deferred.update(self._dirty)
            self._dirty = deferred
        plan_span.attrs["dirty"] = len(queue)
        plan_span.attrs["entries"] = len(plan.entries)
        plan_span.attrs["fresh"] = fresh
        plan_span.attrs["reused"] = len(plan.entries) - fresh
        plan_span.attrs["deferred"] = len(plan.deferred)
        self.tracer.finish(plan_span)
        return plan

    def execute_plan(self, plan: EpochPlan) -> EpochReport:
        """Execute a plan serially over the live network: every fresh
        entry's wire round, in plan order, then :func:`fold_plan` — the
        one fold the round pool's results go through too.  Rounds are
        collected before anything is recorded, so a round that raises
        leaves no event behind; the plan's pairs go back on the queue
        (:meth:`requeue`)."""
        span = self.tracer.begin(
            "execute", component="audit", epoch=plan.epoch,
            entries=len(plan.entries),
        )
        try:
            outcomes = {
                position: self._wire_round(
                    entry.item, entry.round, chooser=entry.chooser
                )
                for position, entry in plan.fresh_entries()
            }
            report = fold_plan(self, plan, outcomes)
        except BaseException:
            self.requeue(plan)
            self.tracer.finish(span, status="error")
            raise
        self.tracer.finish(span)
        report.wall_seconds = span.duration
        return report

    def requeue(self, plan: EpochPlan) -> None:
        """Mark every pair of a plan whose execution failed dirty again.

        Planning consumed the dirty marks; without this a failed epoch
        would leave an audit hole — the paper's §2.3 Detection property
        silently lost for those pairs.  A later epoch re-audits them
        from scratch: at-least-once, never silently-never.  Both
        executors (:meth:`execute_plan` and the cluster pipeline) call
        it."""
        for entry in plan.entries:
            self.mark(entry.item.asn, entry.item.prefix)

    def run_until_idle(self, max_epochs: int = 64) -> List[EpochOutcome]:
        """Run epochs until the dirty queue drains (work bounds can make
        one churn burst span several epochs)."""
        outcomes = []
        while self._dirty:
            if len(outcomes) >= max_epochs:
                raise MonitorError(
                    f"dirty queue did not drain within {max_epochs} epochs"
                )
            outcomes.append(self.run_epoch())
        return outcomes

    # -- verification --------------------------------------------------------

    def _next_round(self) -> int:
        """A fresh protocol round number (rounds are never reused, so
        replayed material from an earlier round fails signature checks)."""
        self._round_counter += 1
        return self._round_counter

    def _wire_round(
        self,
        item: WorkItem,
        round: int,
        prover: object = None,
        chooser: ChooserRef = None,
    ) -> RoundResult:
        """One wire round over the live network on the round's
        deterministic nonce stream, not yet recorded."""
        return run_wire_round(
            self._require_network(),
            self.keystore,
            item.spec,
            item.routes,
            round=round,
            prover=prover,
            chooser=resolve_chooser(chooser),
            random_bytes=round_randomness(self.rng_seed, round),
        )

    def _record_round(
        self,
        item: WorkItem,
        round: int,
        report: SessionReport,
        stats: RoundStats,
        *,
        epoch: Optional[int],
    ) -> VerdictEvent:
        return self.evidence.record(
            VerdictEvent(
                seq=self.evidence.next_seq(),
                epoch=epoch,
                asn=item.asn,
                prefix=item.prefix,
                policy=item.policy,
                spec=item.spec,
                round=round,
                routes=dict(item.routes),
                report=report,
                stats=stats,
            )
        )

    # -- one-shot audits -----------------------------------------------------

    def audit_once(
        self,
        asn: str,
        prefix: Prefix,
        recipient: Optional[str] = None,
        *,
        promise: Optional[Promise] = None,
        spec: Optional[PromiseSpec] = None,
        prover: object = None,
        max_length: int = DEFAULT_MAX_LENGTH,
    ) -> VerdictEvent:
        """Run one wire round right now, outside the epoch scheduler.

        This is the in-situ probe (and the adversary gallery's path):
        ``prover`` injects a Byzantine prover, so the result is recorded
        in the evidence store but never cached, and — being outside the
        epoch scheduler — the event carries ``epoch=None`` so per-epoch
        queries stay consistent.  ``spec`` overrides materialization
        entirely; otherwise ``promise`` (default
        :class:`~repro.promises.spec.ShortestRoute`) is materialized
        against the AS's current RIBs toward ``recipient``.
        """
        network = self._require_network()
        router = network.router(asn)
        if spec is not None:
            item = WorkItem(
                asn=asn, prefix=prefix, policy="audit-once", spec=spec,
                routes={
                    p: router.adj_rib_in.route_from(p, prefix)
                    for p in spec.providers
                },
            )
        else:
            if recipient is None:
                raise ValueError("audit_once needs a recipient or a spec")
            item = single_recipient_item(
                router, asn, "audit-once", prefix, recipient,
                promise if promise is not None else ShortestRoute(),
                max_length=max_length,
            )
            if item is None:
                raise ValueError(
                    f"{asn} has no providers for {prefix} "
                    f"(besides the recipient)"
                )
        round_no = self._next_round()
        report, stats = self._wire_round(item, round_no, prover=prover)
        return self._record_round(item, round_no, report, stats, epoch=None)


def fold_plan(
    monitor: Monitor,
    plan: EpochPlan,
    outcomes: Mapping[int, RoundResult],
) -> EpochReport:
    """Record one executed plan into the monitor's evidence store.

    The one fold, whoever ran the rounds: :meth:`Monitor.execute_plan`
    over the live network, or the cluster pipeline's round pool.  The
    evidence store is append-only and its sequence numbers are the
    audit trail's spine, so the fold walks the *plan* — the canonical
    order — and records each entry from the reuse cache or from the
    ``(report, stats)`` of its round, applying the cache rule
    (:func:`absorb_verdict`) as it goes.  Every fresh entry must appear
    in ``outcomes``: a hole, or an outcome whose round/spec disagrees
    with the plan, raises :class:`MergeError` rather than silently
    corrupting the trail.
    """
    evidence = monitor.evidence
    report = EpochReport(epoch=plan.epoch)
    report.deferred.extend(plan.deferred)
    for position, entry in enumerate(plan.entries):
        if not entry.fresh:
            event = evidence.record(
                reused_event(
                    entry.previous, seq=evidence.next_seq(), epoch=plan.epoch
                )
            )
        else:
            if position not in outcomes:
                raise MergeError(
                    f"plan position {position} "
                    f"({entry.item.asn}, {entry.item.prefix}) has no outcome"
                )
            session_report, stats = outcomes[position]
            if session_report.round != entry.round:
                raise MergeError(
                    f"outcome round {session_report.round} != "
                    f"planned {entry.round}"
                )
            if session_report.spec != entry.item.spec:
                raise MergeError(
                    f"outcome spec diverged from plan at position {position}"
                )
            event = monitor._record_round(
                entry.item, entry.round, session_report, stats,
                epoch=plan.epoch,
            )
            absorb_verdict(monitor._cache, entry.item, entry.fingerprint, event)
        report.events.append(event)
    report.signatures = sum(e.stats.signatures for e in report.events)
    report.verifications = sum(e.stats.verifications for e in report.events)
    return report
