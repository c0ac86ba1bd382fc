"""The scenario registry: named, reusable verification workloads.

Every workload the repo exercises — the paper's figures, the adversary
gallery, the promise hierarchy — is a *scenario*: a factory producing a
:class:`~repro.pvr.session.PromiseSpec`, the per-provider routes, and
any session options (a Byzantine prover, an export chooser, batching).
Scenarios are registered by name so examples, benchmarks and tests share
one catalogue instead of re-declaring configs:

    from repro.pvr import scenarios

    report = scenarios.run("fig1-minimum", keystore)
    for name in scenarios.list():
        print(name, "-", scenarios.get(name).description)

New workloads register themselves with the decorator::

    @scenarios.register("my-workload", "what it shows")
    def _build():
        return scenarios.Scenario(spec=..., routes=...)

The churn-step and network builders at the bottom (``flap_session``,
``serve_network``, ...) are what *network-level* workloads are scripted
from; those are registered in :mod:`repro.cluster.workload`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keystore import KeyStore
from repro.promises.spec import (
    ExistentialPromise,
    NoLongerThanOthers,
    ShortestFromSubset,
    ShortestRoute,
    WithinKHops,
)
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.session import PromiseSpec, SessionReport

__all__ = [
    "Scenario",
    "register",
    "get",
    "list",
    "names",
    "run",
    "build_session",
    "apply_step",
    "figure1_network",
    "serve_network",
    "flap_session",
    "restore_session",
    "bounce_session",
    "reoriginate",
    "reoriginate_origin",
    "serve_prefixes",
]


@dataclass(frozen=True)
class Scenario:
    """One runnable workload: the spec, the inputs, the session knobs.

    ``prover_factory`` builds the (possibly Byzantine) prover from the
    keystore at run time; ``chooser`` is the cross-check export policy;
    ``batching`` has the prover sign the round as one Section 3.8 batch.
    """

    spec: PromiseSpec
    routes: Dict[str, Optional[Route]]
    description: str = ""
    name: str = ""
    round: int = 1
    prover_factory: Optional[Callable[[KeyStore], object]] = None
    chooser: Optional[Callable] = None
    batching: bool = False
    expect_violation: bool = False


_REGISTRY: Dict[str, Callable[[], Scenario]] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register(name: str, description: str = ""):
    """Decorator: register a zero-argument scenario factory under ``name``."""

    def wrap(factory: Callable[[], Scenario]) -> Callable[[], Scenario]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = factory
        _DESCRIPTIONS[name] = description or (factory.__doc__ or "").strip()
        return factory

    return wrap


def get(name: str) -> Scenario:
    """Build the named scenario (fresh objects each call)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None
    scenario = factory()
    if not scenario.name:
        scenario = dataclasses.replace(
            scenario,
            name=name,
            description=scenario.description or _DESCRIPTIONS[name],
        )
    return scenario


def names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def list() -> Tuple[str, ...]:  # noqa: A001 - the issue-mandated API name
    """All registered scenario names (alias: :func:`names`)."""
    return names()


def build_session(
    scenario: Scenario, keystore: KeyStore, **overrides
) -> VerificationSession:
    """A ready-to-run session for a scenario."""
    options = {"batching": scenario.batching, **overrides}
    if scenario.prover_factory is not None and "prover" not in options:
        options["prover"] = scenario.prover_factory(keystore)
    if scenario.chooser is not None and "chooser" not in options:
        options["chooser"] = scenario.chooser
    options.setdefault("round", scenario.round)
    return VerificationSession(keystore, scenario.spec, **options)


def run(
    name: str,
    keystore: Optional[KeyStore] = None,
    *,
    judge: bool = True,
    **overrides,
) -> SessionReport:
    """Run the named scenario end to end and return its report."""
    scenario = get(name)
    if keystore is None:
        keystore = KeyStore(seed=2011, key_bits=512)
    session = build_session(scenario, keystore, **overrides)
    report = session.run(
        scenario.routes, judge=Judge(keystore) if judge else None
    )
    return report


# -- built-in scenarios --------------------------------------------------------

_PFX = Prefix.parse("203.0.113.0/24")


def _route(neighbor: str, length: int) -> Route:
    return Route(
        prefix=_PFX,
        as_path=ASPath((neighbor,) + tuple(f"T{i}" for i in range(length - 1))),
        neighbor=neighbor,
    )


_FIG1_ROUTES = {"N1": _route("N1", 3), "N2": _route("N2", 2),
                "N3": _route("N3", 4)}


@register("fig1-minimum", "Figure 1: honest shortest-route round")
def _fig1() -> Scenario:
    return Scenario(
        spec=PromiseSpec(
            promise=ShortestRoute(),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B",),
            max_length=8,
        ),
        routes=dict(_FIG1_ROUTES),
    )


@register("fig1-longer-route",
          "Figure 1 with a prover exporting a longer route than promised")
def _fig1_cheat() -> Scenario:
    from repro.pvr.adversary import LongerRouteProver

    return Scenario(
        spec=PromiseSpec(
            promise=ShortestRoute(),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B",),
            max_length=8,
        ),
        routes=dict(_FIG1_ROUTES),
        prover_factory=lambda keystore: LongerRouteProver(keystore),
        expect_violation=True,
    )


@register("fig1-batched", "Figure 1 with the prover's Section 3.8 batch signature")
def _fig1_batched() -> Scenario:
    return Scenario(
        spec=PromiseSpec(
            promise=ShortestRoute(),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B",),
            max_length=8,
        ),
        routes=dict(_FIG1_ROUTES),
        batching=True,
    )


@register("promise3-slack",
          "Promise 3: a 2-hops-longer export under contracted slack k=2")
def _promise3() -> Scenario:
    return Scenario(
        spec=PromiseSpec(
            promise=WithinKHops(2),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B",),
            max_length=8,
        ),
        routes=dict(_FIG1_ROUTES),
    )


@register("sec32-existential",
          "Section 3.2: the single-bit existential protocol")
def _existential() -> Scenario:
    providers = ("N1", "N2", "N3")
    return Scenario(
        spec=PromiseSpec(
            promise=ExistentialPromise(providers),
            prover="A",
            providers=providers,
            recipients=("B",),
            max_length=8,
        ),
        routes={"N1": _route("N1", 3), "N2": None, "N3": _route("N3", 4)},
    )


@register("fig2-multiop",
          "Figure 2: min(r2..rk) unless N1 provides a shorter route")
def _fig2() -> Scenario:
    from repro.rfg.builder import figure2_graph

    providers = ("N1", "N2", "N3", "N4")
    return Scenario(
        spec=PromiseSpec(
            promise=ShortestRoute(),
            prover="A",
            providers=providers,
            recipients=("B",),
            max_length=8,
            plan=figure2_graph(providers, recipient="B"),
        ),
        routes={name: _route(name, 2 + i)
                for i, name in enumerate(providers)},
    )


@register("partial-transit",
          "Section 1's partial-transit contract as promise 2 over a subset")
def _partial_transit() -> Scenario:
    providers = ("EU-PEER-1", "EU-PEER-2", "US-PEER", "ASIA-PEER")
    return Scenario(
        spec=PromiseSpec(
            promise=ShortestFromSubset(("EU-PEER-1", "EU-PEER-2")),
            prover="A",
            providers=providers,
            recipients=("B",),
            max_length=10,
        ),
        routes={
            "EU-PEER-1": _route("EU-PEER-1", 3),
            "EU-PEER-2": _route("EU-PEER-2", 4),
            "US-PEER": _route("US-PEER", 2),
            "ASIA-PEER": _route("ASIA-PEER", 5),
        },
    )


@register("promise4-honest",
          "Promise 4: every recipient served the same shortest route")
def _promise4() -> Scenario:
    return Scenario(
        spec=PromiseSpec(
            promise=NoLongerThanOthers(),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B1", "B2", "B3"),
            max_length=8,
        ),
        routes=dict(_FIG1_ROUTES),
    )


@register("promise4-discriminating",
          "Promise 4 violated: one recipient favored with a shorter route")
def _promise4_cheat() -> Scenario:
    from repro.pvr.crosscheck import discriminating_chooser

    return Scenario(
        spec=PromiseSpec(
            promise=NoLongerThanOthers(),
            prover="A",
            providers=("N1", "N2", "N3"),
            recipients=("B1", "B2", "B3"),
            max_length=8,
        ),
        routes=dict(_FIG1_ROUTES),
        chooser=discriminating_chooser("B1"),
        expect_violation=True,
    )


# -- the Section 3.8 scaling scenarios -----------------------------------------
#
# Per-round cost is linear in the provider count k; these scenarios are
# the measurement points for that line (k ∈ {4, 16, 64}).

SCALING_KS = (4, 16, 64)


def _scale_scenario(k: int) -> Scenario:
    routes = {
        f"N{i}": _route(f"N{i}", 1 + (i * 7) % 12)
        for i in range(1, k + 1)
    }
    return Scenario(
        spec=PromiseSpec(
            promise=ShortestRoute(),
            prover="A",
            providers=tuple(f"N{i}" for i in range(1, k + 1)),
            recipients=("B",),
            max_length=12,
        ),
        routes=routes,
    )


def _register_scaling() -> None:
    for k in SCALING_KS:
        register(
            f"scale-k{k}",
            f"Section 3.8 scaling: one honest round with k={k} providers",
        )(lambda k=k: _scale_scenario(k))


_register_scaling()


# -- churn-step and network builders -------------------------------------------
#
# The substrate of every *network-level* workload: converged BGP
# networks and the churn steps that disturb them.  The workloads
# themselves — a network, promise policies and a script of churn
# requests — are registered one layer up, in
# :mod:`repro.cluster.workload`.


def apply_step(step, net) -> None:
    """Apply one churn step to ``net``.

    A step is either a live callable ``step(net)`` (the closures the
    builders below return) or a picklable ``(builder, args)`` pair —
    the form that crosses the cluster's IPC boundary, since the builders
    are module-level functions that pickle by reference while their
    closures do not.  The pair is rebuilt (``builder(*args)``) and
    applied on the receiving side.
    """
    if callable(step):
        step(net)
        return
    builder, args = step
    builder(*args)(net)


def flap_session(a: str, b: str):
    """Drop the a<->b BGP session and all routes learned over it."""

    def step(net) -> None:
        net.drop_session(a, b)

    return step


def restore_session(a: str, b: str):
    """Re-establish a previously flapped session (full table resent)."""

    def step(net) -> None:
        net.routers[a].start_session(net.transport, b)

    return step


def bounce_session(a: str, b: str):
    """Flap and immediately restore: after quiescence every route is
    back, but the decision hooks fired — the pure-reuse churn case."""
    down, up = flap_session(a, b), restore_session(a, b)

    def step(net) -> None:
        down(net)
        net.run_to_quiescence()
        up(net)

    return step


def reoriginate(asn: str, prefix: Prefix):
    """Withdraw and immediately re-originate ``prefix`` at ``asn``."""

    def step(net) -> None:
        net.withdraw(asn, prefix)
        net.run_to_quiescence()
        net.originate(asn, prefix)

    return step


_CHURN_PFX = Prefix.parse("10.0.0.0/8")


def _figure1_topology(*customers: str):
    """O - {X - {N1, N3}, N2} - A - customers, sessions established."""
    from repro.bgp.network import BGPNetwork

    net = BGPNetwork()
    for asn in ("O", "X", "N1", "N2", "N3", "A", *customers):
        net.add_as(asn)
    for a, b in (("O", "X"), ("X", "N1"), ("X", "N3"), ("O", "N2"),
                 ("N1", "A"), ("N2", "A"), ("N3", "A")):
        net.connect(a, b)
    for customer in customers:
        net.connect("A", customer)
    net.establish_sessions()
    return net


def figure1_network(prefix: Prefix = _CHURN_PFX):
    """The paper's Figure 1 as a converged BGP network: O originates
    ``prefix``; N2 hears it directly (2 hops at A), N1 and N3 via X
    (3 hops at A); all three feed A, and A exports to B.

    The shared topology behind the churn workloads, the audit examples
    and the monitor tests — one definition, so they cannot diverge.
    """
    net = _figure1_topology("B")
    net.originate("O", prefix)
    net.run_to_quiescence()
    return net


def serve_prefixes(prefix_count: int) -> Tuple[Prefix, ...]:
    """The prefixes :func:`serve_network` originates, in rank order."""
    if prefix_count < 1:
        raise ValueError(f"prefix_count must be >= 1, got {prefix_count}")
    if prefix_count > 200:
        raise ValueError("prefix_count > 200 leaves 10.x space")
    return tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(prefix_count))


def serve_network(prefix_count: int = 8):
    """The serving-layer workload substrate: Figure 1, many prefixes.

    The Figure 1 topology plus a second customer ``B2`` at A (so the
    promise-4 cross-check has two comparable recipients), with
    ``prefix_count`` prefixes all originated at O — every (A, prefix)
    pair is a distinct audited tuple, which is what gives the sharded
    service rounds to fan out (and makes the load generator's
    hot-prefix Zipf skew observable).  Returns ``(network, prefixes)``
    with ``prefixes`` in rank order (index 0 is the load generator's
    hot head).
    """
    prefixes = serve_prefixes(prefix_count)
    net = _figure1_topology("B", "B2")
    for prefix in prefixes:
        net.originate("O", prefix)
    net.run_to_quiescence()
    return net, prefixes


def reoriginate_origin(prefix: Prefix = _CHURN_PFX):
    """Withdraw and re-originate ``prefix`` at its origin (discovered
    from the network at run time)."""

    def step(net) -> None:
        origin = next(
            (asn for asn, router in net.routers.items()
             if prefix in router.originated),
            None,
        )
        if origin is None:
            raise ValueError(f"no router originates {prefix}")
        reoriginate(origin, prefix)(net)

    return step
