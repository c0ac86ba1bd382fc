"""Audit policies: what a monitored AS has promised, to whom.

A policy binds one AS to one promise.  What it accepts as ``spec``:

* a :class:`~repro.promises.spec.Promise` template (``ShortestRoute()``,
  ``WithinKHops(2)``, ``NoLongerThanOthers()``, ...) — the concrete
  :class:`~repro.pvr.session.PromiseSpec` is *materialized from the live
  RIBs* at every epoch: providers are the neighbors currently announcing
  the prefix, recipients the neighbors the AS currently exports it to;
* a callable ``providers -> Promise`` — for promises parameterized by
  the provider set (e.g. ``lambda ps: ExistentialPromise(ps)``);
* a full :class:`~repro.pvr.session.PromiseSpec` — parties fixed by the
  caller; the monitor only schedules and caches it.

``recipients=...`` restricts which neighbors the policy covers, so two
policies on the same AS can promise different things to different
neighbors (per-neighbor overrides); ``prefixes=...`` restricts the
prefixes audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.audit.choosers import ChooserRef
from repro.bgp.prefix import Prefix
from repro.bgp.router import BGPRouter
from repro.promises.spec import NoLongerThanOthers, Promise
from repro.pvr.minimum import DEFAULT_MAX_LENGTH
from repro.pvr.session import PromiseSpec

SpecSource = Union[Promise, PromiseSpec, Callable[[Tuple[str, ...]], Promise]]


@dataclass(frozen=True)
class WorkItem:
    """One materialized verification task: the spec plus its inputs."""

    asn: str
    prefix: Optional[Prefix]
    policy: str
    spec: PromiseSpec
    routes: Dict[str, object]

    def fingerprint(self) -> Tuple:
        """The incremental-reuse key ingredients: the contract and the
        exact announced inputs.  Round numbers are deliberately absent —
        a tuple re-verified with unchanged inputs is the *same* work."""
        return (self.spec, tuple(sorted(self.routes.items(), key=lambda kv: kv[0])))


def single_recipient_item(
    router: BGPRouter,
    asn: str,
    policy_name: str,
    prefix: Prefix,
    recipient: str,
    promise: object,
    *,
    variant: str = "auto",
    max_length: int = DEFAULT_MAX_LENGTH,
) -> Optional[WorkItem]:
    """Materialize one single-recipient verification task from the live
    RIBs: providers are the neighbors currently announcing ``prefix``
    (minus the recipient — the only provider cannot also be the
    auditor); returns ``None`` when no provider remains.

    ``promise`` may be a template or a ``providers -> Promise`` factory.
    The single definition of these rules — the epoch scheduler
    (:meth:`AuditPolicy.work_items`) and the one-shot path
    (:meth:`repro.audit.monitor.Monitor.audit_once`) both call it, so
    the two can never diverge.
    """
    providers = tuple(
        p
        for p in router.adj_rib_in.neighbors_announcing(prefix)
        if p != recipient
    )
    if not providers:
        return None
    if callable(promise) and not isinstance(promise, Promise):
        promise = promise(providers)
    spec = PromiseSpec(
        promise=promise,
        prover=asn,
        providers=providers,
        recipients=(recipient,),
        variant=variant,
        max_length=max_length,
    )
    routes = {p: router.adj_rib_in.route_from(p, prefix) for p in providers}
    return WorkItem(
        asn=asn, prefix=prefix, policy=policy_name, spec=spec, routes=routes
    )


@dataclass(frozen=True)
class AuditPolicy:
    """One registered promise policy on one AS."""

    name: str
    asn: str
    spec: SpecSource
    recipients: Optional[Tuple[str, ...]] = None
    prefixes: Optional[Tuple[Prefix, ...]] = None
    variant: str = "auto"
    max_length: int = DEFAULT_MAX_LENGTH
    #: a :mod:`repro.audit.choosers` registry name (it pickles, so the
    #: policy's rounds run on pool workers)
    chooser: ChooserRef = None

    def covers(self, prefix: Prefix) -> bool:
        return self.prefixes is None or prefix in self.prefixes

    # -- materialization -----------------------------------------------------

    def work_items(self, router: BGPRouter, prefix: Prefix) -> List[WorkItem]:
        """The verification tasks this policy implies for ``prefix``,
        given the router's *current* RIB state."""
        if isinstance(self.spec, PromiseSpec):
            # same relevance guards as the template path: a prefix none
            # of the pinned providers announce, or that the AS exports
            # to none of the pinned recipients, has nothing to audit —
            # a wire round over it would spend crypto proving nothing
            announcing = set(router.adj_rib_in.neighbors_announcing(prefix))
            if not announcing.intersection(self.spec.providers):
                return []
            if not any(
                router.adj_rib_out.advertised(r, prefix) is not None
                for r in self.spec.recipients
            ):
                return []
            routes = {
                p: router.adj_rib_in.route_from(p, prefix)
                for p in self.spec.providers
            }
            return [
                WorkItem(
                    asn=self.asn, prefix=prefix, policy=self.name,
                    spec=self.spec, routes=routes,
                )
            ]

        providers = router.adj_rib_in.neighbors_announcing(prefix)
        exported_to = tuple(
            peer
            for peer in router.established_peers()
            if router.adj_rib_out.advertised(peer, prefix) is not None
            and (self.recipients is None or peer in self.recipients)
        )
        if not providers or not exported_to:
            return []

        # Dispatch (cross-check vs single-recipient) happens once per
        # prefix.  A plain Promise template dispatches on itself; a
        # factory is probed with the unfiltered provider set here and
        # re-invoked with each recipient's filtered set below — so a
        # factory must return one promise *family* regardless of the
        # provider set it is given.
        if isinstance(self.spec, Promise):
            template = source = self.spec
        else:
            template, source = self.spec(providers), self.spec
        if isinstance(template, NoLongerThanOthers):
            return self._crosscheck_item(router, prefix, providers, exported_to)

        items: List[WorkItem] = []
        for recipient in exported_to:
            item = single_recipient_item(
                router, self.asn, self.name, prefix, recipient,
                source, variant=self.variant,
                max_length=self.max_length,
            )
            if item is not None:
                items.append(item)
        return items

    def _promise(self, providers: Tuple[str, ...]) -> Promise:
        if isinstance(self.spec, Promise):
            return self.spec
        return self.spec(providers)

    def _crosscheck_item(
        self,
        router: BGPRouter,
        prefix: Prefix,
        providers: Tuple[str, ...],
        exported_to: Tuple[str, ...],
    ) -> List[WorkItem]:
        """Promise 4 audits all recipients in one cross-check session."""
        recipients = tuple(r for r in exported_to if r not in providers)
        if len(recipients) < 2:
            return []  # the cross-check needs >= 2 comparable recipients
        spec = PromiseSpec(
            promise=self._promise(providers),
            prover=self.asn,
            providers=providers,
            recipients=recipients,
            variant=self.variant,
            max_length=self.max_length,
        )
        routes = {
            p: router.adj_rib_in.route_from(p, prefix) for p in providers
        }
        return [
            WorkItem(
                asn=self.asn, prefix=prefix, policy=self.name,
                spec=spec, routes=routes,
            )
        ]
