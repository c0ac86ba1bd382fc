"""Routing information bases.

The classic three-RIB structure of a BGP speaker:

* :class:`AdjRIBIn` — routes received from each neighbor, post-import-
  policy.  This is exactly the set PVR commits to: "the set of input
  routes the AS might receive" (Section 2).
* :class:`LocRIB` — the selected best route per prefix.
* :class:`AdjRIBOut` — what was last advertised to each neighbor, used to
  suppress duplicate announcements and to generate withdrawals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route


class AdjRIBIn:
    """Per-neighbor, per-prefix store of received routes.

    Indexed both ways so every query costs what it returns, not the
    table: ``prefix -> {neighbor: route}`` answers the decision process
    and the audit planner, ``neighbor -> {prefix}`` answers session
    teardown.  The per-neighbor dict holds that neighbor's prefixes in
    the order it announced them (a replacement keeps its place, a
    re-announcement after a withdrawal goes last), which is the order
    :meth:`drop_neighbor` reports them in — and so the order of the
    re-decisions, UPDATEs and audit events a session loss causes.
    """

    def __init__(self) -> None:
        self._by_prefix: Dict[Prefix, Dict[str, Route]] = {}
        self._by_neighbor: Dict[str, Dict[Prefix, None]] = {}

    def insert(self, neighbor: str, route: Route) -> None:
        """Store ``route`` as the current announcement from ``neighbor``.

        A newer announcement for the same prefix implicitly replaces the
        older one (BGP's implicit-withdraw rule).
        """
        if route.neighbor != neighbor:
            route = route.with_neighbor(neighbor)
        self._by_prefix.setdefault(route.prefix, {})[neighbor] = route
        self._by_neighbor.setdefault(neighbor, {})[route.prefix] = None

    def withdraw(self, neighbor: str, prefix: Prefix) -> Optional[Route]:
        """Remove and return the route ``neighbor`` announced for ``prefix``."""
        announced = self._by_prefix.get(prefix, {})
        route = announced.pop(neighbor, None)
        if route is not None:
            if not announced:
                del self._by_prefix[prefix]
            del self._by_neighbor[neighbor][prefix]
        return route

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All currently-valid routes to ``prefix``, sorted by neighbor."""
        announced = self._by_prefix.get(prefix, {})
        return [announced[neighbor] for neighbor in sorted(announced)]

    def route_from(self, neighbor: str, prefix: Prefix) -> Optional[Route]:
        return self._by_prefix.get(prefix, {}).get(neighbor)

    def neighbors_announcing(self, prefix: Prefix) -> Tuple[str, ...]:
        return tuple(sorted(self._by_prefix.get(prefix, ())))

    def prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(sorted(self._by_prefix))

    def drop_neighbor(self, neighbor: str) -> List[Prefix]:
        """Remove everything from ``neighbor`` (session teardown); returns
        the affected prefixes."""
        affected = list(self._by_neighbor.pop(neighbor, ()))
        for prefix in affected:
            announced = self._by_prefix[prefix]
            del announced[neighbor]
            if not announced:
                del self._by_prefix[prefix]
        return affected

    def __len__(self) -> int:
        return sum(len(prefixes) for prefixes in self._by_neighbor.values())


class LocRIB:
    """Best route per prefix, as chosen by the decision process."""

    def __init__(self) -> None:
        self._best: Dict[Prefix, Route] = {}

    def set_best(self, prefix: Prefix, route: Optional[Route]) -> bool:
        """Record the new best route; returns True when it changed."""
        current = self._best.get(prefix)
        if route is None:
            if prefix in self._best:
                del self._best[prefix]
                return True
            return False
        if current == route:
            return False
        self._best[prefix] = route
        return True

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._best.get(prefix)

    def prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(sorted(self._best))

    def routes(self) -> Tuple[Route, ...]:
        return tuple(self._best[p] for p in sorted(self._best))

    def __len__(self) -> int:
        return len(self._best)


class AdjRIBOut:
    """Last route advertised to each neighbor, per prefix."""

    def __init__(self) -> None:
        self._advertised: Dict[str, Dict[Prefix, Route]] = {}

    def record(self, neighbor: str, route: Route) -> None:
        self._advertised.setdefault(neighbor, {})[route.prefix] = route

    def advertised(self, neighbor: str, prefix: Prefix) -> Optional[Route]:
        return self._advertised.get(neighbor, {}).get(prefix)

    def clear(self, neighbor: str, prefix: Prefix) -> Optional[Route]:
        return self._advertised.get(neighbor, {}).pop(prefix, None)

    def prefixes_to(self, neighbor: str) -> Tuple[Prefix, ...]:
        return tuple(sorted(self._advertised.get(neighbor, ())))

    def __len__(self) -> int:
        return sum(len(routes) for routes in self._advertised.values())
