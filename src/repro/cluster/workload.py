"""Churn workloads, the serial reference driver and the parity oracle.

A churn workload is data the serving stack already understands: a
:class:`~repro.cluster.spec.ClusterSpec` (network factory + policies)
and a script of :class:`~repro.cluster.requests.ChurnRequest`\\ s with
picklable ``(builder, args)`` steps, so one script drives a cluster, the
asyncio service, a journal replay and — through :func:`drive_monitor`,
the serial reference the production loop is held to — an unsharded
:class:`~repro.audit.monitor.Monitor`.  Every script opens with an
empty request (audit the converged state) and closes with a ``marks=``
sweep that a warm cache serves with zero crypto.

Workloads are registered by name; ``get(name, **fields)`` returns
``(spec, requests)`` with ``fields`` applied to the spec.
``serve-churn`` is the parametrised member: :func:`churn_script` over
:func:`serve_spec`, sized by ``prefixes`` / ``rounds`` /
``violation_every``.  :func:`trail_mismatches` is the byte-parity
oracle; :func:`reference_mismatches` composes it with the driver.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.events import EpochOutcome
from repro.audit.monitor import Monitor
from repro.bgp.prefix import Prefix
from repro.promises.spec import ExistentialPromise, ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import (
    apply_step,
    bounce_session,
    figure1_network,
    flap_session,
    reoriginate,
    reoriginate_origin,
    restore_session,
    serve_network,
    serve_prefixes,
)

from repro.cluster.requests import AuditProbe, ChurnRequest
from repro.cluster.spec import ClusterSpec, PolicySpec

__all__ = [
    "churn_script",
    "drive_monitor",
    "get",
    "names",
    "reference_mismatches",
    "register",
    "serve_spec",
    "trail_mismatches",
]

Workload = Tuple[ClusterSpec, Tuple[ChurnRequest, ...]]

#: name -> (description, ``**fields -> (spec, requests)`` factory)
_REGISTRY: Dict[str, Tuple[str, Callable[..., Workload]]] = {}


def register(name: str, description: str, factory: Callable[..., Workload]):
    """Register a ``**fields -> (spec, requests)`` factory; ``fields``
    it does not consume itself go to its ``ClusterSpec``."""
    if name in _REGISTRY:
        raise ValueError(f"workload {name!r} already registered")
    _REGISTRY[name] = (description, factory)


def names() -> Dict[str, str]:
    """Every registered workload name, sorted, with its description."""
    return {name: _REGISTRY[name][0] for name in sorted(_REGISTRY)}


def get(name: str, **fields) -> Workload:
    """Build the named workload: a fresh spec, the (immutable) script."""
    try:
        _, factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown churn workload {name!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        ) from None
    spec, requests = factory(**fields)
    return spec, tuple(requests)


# -- the serving workload ------------------------------------------------------


def _serve_network_only(prefixes: int):
    return serve_network(prefixes)[0]


def serve_spec(prefixes: int = 8, **fields) -> ClusterSpec:
    """The serving substrate as a spec: ``serve_network(prefixes)``
    with, unless ``policies=`` says otherwise, A's shortest-route
    promise toward B."""
    fields.setdefault("policies", (
        PolicySpec(
            "A",
            ShortestRoute(),
            {"recipients": ("B",), "name": "A/min->B", "max_length": 8},
        ),
    ))
    return ClusterSpec(
        network=functools.partial(_serve_network_only, prefixes), **fields
    )


def _sweep(asns: Sequence[str], prefixes: Sequence[Prefix]) -> ChurnRequest:
    """The closing resync: every (policy AS, prefix) pair marked."""
    return ChurnRequest(
        marks=tuple((asn, prefix) for asn in asns for prefix in prefixes)
    )


def churn_script(
    prefixes: Sequence[Prefix],
    *,
    rounds: int = 8,
    violation_every: int = 0,
    resync_after: bool = True,
) -> List[ChurnRequest]:
    """A deterministic churn request sequence over ``serve_network``.

    The cycle alternates a session flap, its restore, a prefix
    re-origination and a bounce — covering fresh verification, cache
    reuse and withdrawal-driven churn.  With ``violation_every`` > 0,
    every Nth request carries a :class:`~repro.cluster.requests.AuditProbe`
    in which a :class:`~repro.pvr.adversary.LongerRouteProver` plays A
    toward B.  The final request (with ``resync_after``) marks every
    (A, prefix) pair — a full sweep that a warm cache serves with zero
    crypto.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if violation_every < 0:
        raise ValueError(
            f"violation_every must be >= 0, got {violation_every}"
        )
    requests: List[ChurnRequest] = [ChurnRequest()]  # audit the converged state
    for index in range(rounds):
        prefix = prefixes[index % len(prefixes)]
        step = (
            (flap_session, ("O", "N2")),
            (restore_session, ("O", "N2")),
            (reoriginate, ("O", prefix)),
            (bounce_session, ("X", "N1")),
        )[index % 4]
        probes: Tuple[AuditProbe, ...] = ()
        if violation_every and (index + 1) % violation_every == 0:
            probes = (AuditProbe("A", prefix, "B", prover=LongerRouteProver),)
        requests.append(ChurnRequest(steps=(step,), probes=probes))
    if resync_after:
        requests.append(_sweep(("A",), prefixes))
    return requests


def _serve_churn(
    prefixes: int = 8, rounds: int = 8, violation_every: int = 0, **fields
) -> Workload:
    return serve_spec(prefixes, **fields), churn_script(
        serve_prefixes(prefixes),
        rounds=rounds,
        violation_every=violation_every,
    )


register(
    "serve-churn",
    "The serving substrate under the scripted churn cycle (flap, "
    "restore, re-origination, bounce), sized by prefixes= / rounds= / "
    "violation_every=",
    _serve_churn,
)


# -- the audit catalogue -------------------------------------------------------

_PFX = Prefix.parse("10.0.0.0/8")

#: A's shortest-route promise toward every customer it has
_A_SHORTEST = PolicySpec("A", ShortestRoute(), {"max_length": 8})
_TOWARD_B = {"max_length": 8, "recipients": ("B",)}
_SERVE_4 = functools.partial(_serve_network_only, 4)
_SERVE_4_PREFIXES = serve_prefixes(4)


def _scripted(name, description, network, policies, prefixes, *steps) -> None:
    """Register a fixed workload: one request per step between the
    opening audit and the closing sweep of the policy ASes."""
    asns = tuple(dict.fromkeys(policy.asn for policy in policies))
    requests = (
        ChurnRequest(),
        *(ChurnRequest(steps=(step,)) for step in steps),
        _sweep(asns, prefixes),
    )
    register(name, description, lambda **fields: (
        ClusterSpec(network=network, policies=policies, **fields), requests
    ))


def _generated_network(tier1: int, tier2: int, stubs: int, seed: int):
    from repro.topology.generate import TopologyParams, generate, true_stub
    from repro.topology.internet import build_bgp_network

    graph = generate(
        TopologyParams(tier1=tier1, tier2=tier2, stubs=stubs, seed=seed)
    )
    net = build_bgp_network(graph)
    net.originate(true_stub(graph), _PFX)
    net.run_to_quiescence()
    return net


_scripted(
    "churn-multiprefix",
    "The serving substrate under churn: four prefixes at O, shortest-"
    "route audited at A across a session flap and a re-origination",
    _SERVE_4, (_A_SHORTEST,), _SERVE_4_PREFIXES,
    (flap_session, ("O", "N2")),
    (restore_session, ("O", "N2")),
    (reoriginate, ("O", _SERVE_4_PREFIXES[1])),
)
_scripted(
    "serve-burst",
    "The serving substrate under burst churn: a flap storm across both "
    "feed sessions followed by a full table reset",
    _SERVE_4, (_A_SHORTEST,), _SERVE_4_PREFIXES,
    # the storm: back-to-back bounces, no settling between
    (bounce_session, ("O", "N2")),
    (bounce_session, ("X", "N1")),
    (bounce_session, ("O", "N2")),
    # the table reset: the origin feed drops and re-establishes,
    # resending the full table through the resync hooks
    (flap_session, ("O", "X")),
    (restore_session, ("O", "X")),
)
_scripted(
    "churn-fig1",
    "Figure 1 under churn: the O-N2 session flaps while A's shortest-"
    "route promise is continuously audited",
    figure1_network, (_A_SHORTEST,), (_PFX,),
    (flap_session, ("O", "N2")),
    (restore_session, ("O", "N2")),
)
_scripted(
    "churn-steady",
    "Steady-state reuse: sessions bounce but every input settles back "
    "unchanged, so epochs after the first are served from the cache",
    figure1_network, (_A_SHORTEST,), (_PFX,),
    (bounce_session, ("O", "N2")),
    (bounce_session, ("X", "N1")),
)
_scripted(
    "churn-variants",
    "Per-neighbor policy overrides on Figure 1: promise 2 toward B plus "
    "an existential promise audited in the same epochs",
    figure1_network,
    (PolicySpec("A", ShortestRoute(), _TOWARD_B),
     PolicySpec("A", ExistentialPromise, _TOWARD_B)),
    (_PFX,),
    (flap_session, ("O", "N2")),
)
_scripted(
    "churn-64as",
    "A 64-AS synthetic Internet under churn: tier-1 policies audited "
    "across session bounces and a prefix re-origination",
    functools.partial(_generated_network, 4, 12, 48, 2011),
    # policies go on the tier-1 core: the ASes with the most neighbors,
    # hence the most (provider, recipient) tuples per epoch
    tuple(
        PolicySpec(f"AS{i}", ShortestRoute(), {"max_length": 16})
        for i in range(3)
    ),
    (_PFX,),
    (bounce_session, ("AS0", "AS1")),
    (reoriginate_origin, ()),
)


# -- the serial driver and the oracle ------------------------------------------


def drive_monitor(
    monitor: Monitor,
    requests: Sequence[ChurnRequest],
    *,
    coalesce: int = 1,
) -> List[EpochOutcome]:
    """Replay a churn script against an unsharded monitor, mirroring
    the cluster's request lifecycle exactly: steps, quiescence, epochs
    until the dirty queue drains, then the requests' probes in
    admission order.  ``coalesce`` groups that many adjacent requests
    into one burst — set it to the cluster's ``coalesce_max`` when the
    cluster served the script from a full queue, so the reference's
    epoch boundaries line up with the coalesced epochs.  Returns one
    :class:`~repro.audit.events.EpochOutcome` per group, the shape the
    cluster answers a churn request with."""
    if coalesce < 1:
        raise ValueError(f"coalesce must be >= 1, got {coalesce}")
    network = monitor.network
    outcomes: List[EpochOutcome] = []
    queue = list(requests)
    while queue:
        group, queue = queue[:coalesce], queue[coalesce:]
        for request in group:
            for step in request.steps:
                apply_step(step, network)
            for asn, prefix in request.marks:
                monitor.mark(asn, prefix)
        network.run_to_quiescence()
        outcome = EpochOutcome(coalesced=len(group))
        while monitor.pending():
            outcome.reports.extend(monitor.run_epoch().reports)
        for request in group:
            for probe in request.probes:
                outcome.probe_events.append(
                    monitor.audit_once(
                        probe.asn,
                        probe.prefix,
                        probe.recipient,
                        prover=(
                            probe.prover(monitor.keystore)
                            if probe.prover is not None
                            else None
                        ),
                        max_length=probe.max_length,
                    )
                )
        outcomes.append(outcome)
    return outcomes


def trail_mismatches(
    cluster_store, reference_store, *, limit: Optional[int] = 10
) -> List[str]:
    """Byte-parity oracle: every way two evidence trails can differ.

    Compares the full event streams — sequence numbers, epochs, rounds,
    identities, verdict/evidence/complaint bytes, crypto *and*
    transport cost counters, and the digest of what each round sent
    (so two executors that send different views but reach the same
    verdicts differ).  Returns human-readable mismatch
    descriptions (empty = byte-identical), at most ``limit`` of them.
    """
    problems: List[str] = []

    def note(text: str) -> bool:
        problems.append(text)
        return limit is not None and len(problems) >= limit

    ours = cluster_store.events()
    theirs = reference_store.events()
    if len(ours) != len(theirs):
        note(f"event counts differ: {len(ours)} vs {len(theirs)}")
    for a, b in zip(ours, theirs):
        head = f"seq {a.seq}"
        for attribute in ("seq", "epoch", "round", "asn", "policy",
                          "reused", "spec", "routes"):
            if getattr(a, attribute) != getattr(b, attribute):
                if note(f"{head}: {attribute} differs"):
                    return problems
        if str(a.prefix) != str(b.prefix):
            if note(f"{head}: prefix differs"):
                return problems
        if a.report.verdicts != b.report.verdicts:
            if note(f"{head}: verdicts differ"):
                return problems
        if a.report.equivocations != b.report.equivocations:
            if note(f"{head}: equivocations differ"):
                return problems
        if a.report.all_evidence() != b.report.all_evidence():
            if note(f"{head}: evidence differs"):
                return problems
        if a.report.all_complaints() != b.report.all_complaints():
            if note(f"{head}: complaints differ"):
                return problems
        for counter in ("signatures", "verifications", "messages", "bytes",
                        "wire_digest"):
            if getattr(a.stats, counter) != getattr(b.stats, counter):
                if note(f"{head}: stats.{counter} differs"):
                    return problems
    return problems


def reference_mismatches(
    spec: ClusterSpec,
    requests: Sequence[ChurnRequest],
    store,
    *,
    coalesce: int = 1,
) -> List[str]:
    """How ``store`` differs from the trail of ``spec``'s own unsharded
    monitor driven serially over ``requests`` (empty = byte-identical)."""
    reference = spec.build_monitor()
    drive_monitor(reference, requests, coalesce=coalesce)
    return trail_mismatches(store, reference.evidence)
