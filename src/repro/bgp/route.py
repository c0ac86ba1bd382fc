"""Routes: a destination prefix plus its BGP path attributes.

A :class:`Route` is the unit that flows through route-flow graphs, gets
committed to in PVR, and is compared by the decision process.  Attributes
follow RFC 4271's usage:

* ``local_pref`` — operator preference, highest wins (import policy sets
  it; it never crosses AS boundaries in eBGP, which the router enforces);
* ``as_path`` — loop prevention and the paper's length comparisons;
* ``origin`` — IGP < EGP < INCOMPLETE;
* ``med`` — multi-exit discriminator, lowest wins among same-neighbor
  routes;
* ``communities`` — opaque tags used by policies (e.g. the partial-transit
  example tags European-peer routes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.util.encoding import canonical_encode

ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2

_ORIGIN_NAMES = {ORIGIN_IGP: "IGP", ORIGIN_EGP: "EGP", ORIGIN_INCOMPLETE: "?"}

DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True)
class Route:
    """An immutable route announcement.

    ``neighbor`` records which peer the route was learned from (None for
    locally-originated routes); it is the identity PVR uses when deciding
    which Ni may see which openings.
    """

    prefix: Prefix
    as_path: ASPath = field(default_factory=ASPath)
    neighbor: Optional[str] = None
    local_pref: int = DEFAULT_LOCAL_PREF
    med: int = 0
    origin: int = ORIGIN_IGP
    communities: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.origin not in _ORIGIN_NAMES:
            raise ValueError(f"invalid origin {self.origin}")
        if not isinstance(self.communities, frozenset):
            object.__setattr__(self, "communities", frozenset(self.communities))

    # -- derived ---------------------------------------------------------

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    def has_community(self, community: str) -> bool:
        return community in self.communities

    # -- transformations (used by policies and export) -------------------

    def with_local_pref(self, local_pref: int) -> "Route":
        return replace(self, local_pref=local_pref)

    def with_med(self, med: int) -> "Route":
        return replace(self, med=med)

    def with_neighbor(self, neighbor: Optional[str]) -> "Route":
        return replace(self, neighbor=neighbor)

    def add_community(self, community: str) -> "Route":
        return replace(self, communities=self.communities | {community})

    def remove_community(self, community: str) -> "Route":
        return replace(self, communities=self.communities - {community})

    def prepended(self, asn: str, count: int = 1) -> "Route":
        return replace(self, as_path=self.as_path.prepend(asn, count))

    def exported_by(self, asn: str) -> "Route":
        """The route as it appears on the wire after ``asn`` exports it:
        path prepended, and the non-transitive LOCAL_PREF reset."""
        return replace(
            self,
            as_path=self.as_path.prepend(asn),
            local_pref=DEFAULT_LOCAL_PREF,
            neighbor=asn,
        )

    # -- identity ---------------------------------------------------------

    def announcement_key(self) -> bytes:
        """Canonical bytes identifying the *announced* content of the route
        (what a signature covers): prefix and path attributes, excluding
        receiver-local metadata like ``neighbor`` and ``local_pref``."""
        return canonical_encode(
            (
                "route-announcement",
                self.prefix,
                self.as_path,
                self.med,
                self.origin,
                tuple(sorted(self.communities)),
            )
        )

    def canonical(self) -> bytes:
        return canonical_encode(
            (
                "route",
                self.prefix,
                self.as_path,
                self.neighbor,
                self.local_pref,
                self.med,
                self.origin,
                tuple(sorted(self.communities)),
            )
        )

    def __str__(self) -> str:
        return (
            f"{self.prefix} via [{self.as_path}]"
            f" lp={self.local_pref} med={self.med}"
            f" origin={_ORIGIN_NAMES[self.origin]}"
            + (f" from {self.neighbor}" if self.neighbor else "")
        )
