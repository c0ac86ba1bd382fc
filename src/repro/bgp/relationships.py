"""Gao-Rexford business relationships and valley-free policies.

The paper's motivating context — partial transit, peering, provider
agreements [6, 21, 24] — is the standard customer/provider/peer model
(Gao 2001, reference [7] of the paper).  This module turns a relationship
assignment into concrete import/export :class:`repro.bgp.policy.Policy`
objects:

* **import**: LOCAL_PREF by relationship — customer routes (most
  lucrative) > peer routes > provider routes;
* **export** (valley-free rule): routes learned from customers are
  exported to everyone; routes learned from peers or providers are
  exported to customers only.

The implementation tags routes with provenance communities on import and
filters on those communities on export, which is exactly how operators
express Gao-Rexford in real route-maps — and gives the PVR compiler
realistic policy structures to work from.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

from repro.bgp.policy import (
    AddCommunity,
    Clause,
    MatchAny,
    MatchCommunity,
    Policy,
    SetLocalPref,
)

PROVENANCE_CUSTOMER = "prov:customer"
PROVENANCE_PEER = "prov:peer"
PROVENANCE_PROVIDER = "prov:provider"

LOCAL_PREF_CUSTOMER = 200
LOCAL_PREF_PEER = 150
LOCAL_PREF_PROVIDER = 50


class Relationship(Enum):
    """The relationship of a neighbor *to us*."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"


_IMPORT_SETTINGS: Dict[Relationship, Tuple[str, int]] = {
    Relationship.CUSTOMER: (PROVENANCE_CUSTOMER, LOCAL_PREF_CUSTOMER),
    Relationship.PEER: (PROVENANCE_PEER, LOCAL_PREF_PEER),
    Relationship.PROVIDER: (PROVENANCE_PROVIDER, LOCAL_PREF_PROVIDER),
}


def import_policy(relationship: Relationship) -> Policy:
    """Import policy for a neighbor with the given relationship to us."""
    community, local_pref = _IMPORT_SETTINGS[relationship]
    return Policy(
        clauses=(
            Clause(
                matches=(MatchAny(),),
                actions=(
                    # Strip any forged provenance the neighbor may have set,
                    # then tag with the true provenance.
                    *(
                        _strip(c)
                        for c in (
                            PROVENANCE_CUSTOMER,
                            PROVENANCE_PEER,
                            PROVENANCE_PROVIDER,
                        )
                    ),
                    AddCommunity(community),
                    SetLocalPref(local_pref),
                ),
                name=f"import-{relationship.value}",
            ),
        ),
        name=f"gao-rexford-import-{relationship.value}",
    )


def _strip(community: str):
    from repro.bgp.policy import RemoveCommunity

    return RemoveCommunity(community)


def export_policy(relationship: Relationship) -> Policy:
    """Valley-free export policy toward a neighbor.

    To a **customer**: export everything (they pay for full reach).
    To a **peer** or **provider**: export only customer-learned routes and
    our own originations (routes with no provenance tag).
    """
    if relationship is Relationship.CUSTOMER:
        return Policy(name="gao-rexford-export-to-customer")
    return Policy(
        clauses=(
            Clause(
                matches=(MatchCommunity(PROVENANCE_PEER),),
                permit=False,
                name="no-peer-routes",
            ),
            Clause(
                matches=(MatchCommunity(PROVENANCE_PROVIDER),),
                permit=False,
                name="no-provider-routes",
            ),
        ),
        default_permit=True,
        name=f"gao-rexford-export-to-{relationship.value}",
    )


def is_valley_free(path_relationships) -> bool:
    """Check the valley-free property of a sequence of link types.

    ``path_relationships`` lists, for each hop along the path, the
    relationship of the *next* AS to the current one: an Up (provider),
    Down (customer) or Flat (peer) step.  Valid paths match
    ``Up* Flat? Down*``.
    """
    seen_flat_or_down = False
    for step in path_relationships:
        if step is Relationship.PROVIDER:  # going up
            if seen_flat_or_down:
                return False
        elif step is Relationship.PEER:
            if seen_flat_or_down:
                return False
            seen_flat_or_down = True
        elif step is Relationship.CUSTOMER:  # going down
            seen_flat_or_down = True
        else:
            raise TypeError(f"not a relationship: {step!r}")
    return True
