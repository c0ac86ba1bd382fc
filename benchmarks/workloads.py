"""Shared workload builders for the ``benchmarks/bench_*.py`` series.

The single definition of the Figure 1, Figure 2 and Section 3.2 specs
and route sets.  Route generation is seeded through
:class:`repro.util.rng.DeterministicRandom` forks, preserving the exact
streams the original benchmark scripts used.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.promises.spec import ExistentialPromise, ShortestRoute
from repro.pvr.session import PromiseSpec
from repro.util.rng import DeterministicRandom

__all__ = [
    "BENCH_PREFIX",
    "MAX_LEN",
    "existential_routes",
    "existential_spec",
    "figure2_spec",
    "fig1_routes",
    "minimum_spec",
    "providers_for",
    "route",
]

BENCH_PREFIX = Prefix.parse("10.0.0.0/8")
MAX_LEN = 12


def providers_for(k: int):
    return tuple(f"N{i}" for i in range(1, k + 1))


def route(neighbor: str, length: int) -> Route:
    """A route of the given AS-path length announced by ``neighbor``."""
    return Route(
        prefix=BENCH_PREFIX,
        as_path=ASPath(tuple(f"T{j}" for j in range(length))),
        neighbor=neighbor,
    )


def fig1_routes(k: int, seed: int = 0, max_length: int = MAX_LEN) -> Dict[str, Route]:
    """The Figure 1 benchmark's randomized per-provider routes (the
    ``fig1`` fork keeps the series identical to the original script)."""
    rng = DeterministicRandom(seed).fork("fig1")
    return {
        f"N{i}": route(f"N{i}", rng.randint(1, max_length))
        for i in range(1, k + 1)
    }


def minimum_spec(k: int, max_length: int = MAX_LEN) -> PromiseSpec:
    """Promise 2 (shortest route) over k providers — the Figure 1 shape."""
    return PromiseSpec(
        promise=ShortestRoute(),
        prover="A",
        providers=providers_for(k),
        recipients=("B",),
        max_length=max_length,
    )


def existential_spec(k: int, max_length: int = 8) -> PromiseSpec:
    """The Section 3.2 existential promise over the full provider set."""
    providers = providers_for(k)
    return PromiseSpec(
        promise=ExistentialPromise(providers),
        prover="A",
        providers=providers,
        recipients=("B",),
        max_length=max_length,
    )


def existential_routes(k: int, length: int = 3) -> Dict[str, Optional[Route]]:
    """Every other provider stays silent — the existential benchmark mix."""
    return {
        f"N{i}": (route(f"N{i}", length) if i % 2 else None)
        for i in range(1, k + 1)
    }


def figure2_spec(k: int, max_length: int = MAX_LEN) -> PromiseSpec:
    """The Figure 2 two-operator graph over k providers."""
    from repro.rfg.builder import figure2_graph

    providers = providers_for(k)
    return PromiseSpec(
        promise=ShortestRoute(),
        prover="A",
        providers=providers,
        recipients=("B",),
        max_length=max_length,
        plan=figure2_graph(providers, recipient="B"),
    )
