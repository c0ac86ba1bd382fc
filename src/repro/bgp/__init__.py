"""BGP substrate: an AS-level interdomain routing simulator.

This package is the "unsecured system" of the paper — plain BGP whose
information leakage PVR's confidentiality property is measured against,
and whose decision pipeline the route-flow graphs of :mod:`repro.rfg`
re-express as verifiable operators.

Layering (bottom-up): prefixes and AS paths, routes and messages, RIBs,
the decision process, route-map policies, the session FSM, the router,
and the multi-AS network simulation.  :mod:`repro.bgp.relationships` adds
Gao-Rexford business-relationship policies on top.
"""

from repro.bgp.aspath import ASPath
from repro.bgp.decision import (
    STANDARD_PIPELINE,
    decide,
    rank_key,
    step_as_path_length,
    step_local_pref,
    step_med,
    step_neighbor_tiebreak,
    step_origin,
)
from repro.bgp.messages import (
    Keepalive,
    Notification,
    Open,
    SignedUpdate,
    Update,
    sign_update,
    signed_update_bytes,
)
from repro.bgp.network import BGPNetwork, ConvergenceError
from repro.bgp.policy import (
    DENY_ALL,
    PERMIT_ALL,
    AddCommunity,
    Clause,
    MatchAny,
    MatchASInPath,
    MatchCommunity,
    MatchNeighbor,
    MatchPathLength,
    MatchPrefix,
    Policy,
    Prepend,
    RemoveCommunity,
    SetLocalPref,
    SetMed,
)
from repro.bgp.prefix import Prefix, PrefixError
from repro.bgp.rib import AdjRIBIn, AdjRIBOut, LocRIB
from repro.bgp.route import (
    DEFAULT_LOCAL_PREF,
    ORIGIN_EGP,
    ORIGIN_IGP,
    ORIGIN_INCOMPLETE,
    Route,
)
from repro.bgp.router import BGPRouter
from repro.bgp.relationships import (
    Relationship,
    export_policy,
    import_policy,
    is_valley_free,
)
from repro.bgp.session import Session, SessionError, SessionState

__all__ = [
    "ASPath",
    "STANDARD_PIPELINE",
    "decide",
    "rank_key",
    "step_as_path_length",
    "step_local_pref",
    "step_med",
    "step_neighbor_tiebreak",
    "step_origin",
    "Keepalive",
    "Notification",
    "Open",
    "SignedUpdate",
    "Update",
    "sign_update",
    "signed_update_bytes",
    "BGPNetwork",
    "ConvergenceError",
    "DENY_ALL",
    "PERMIT_ALL",
    "AddCommunity",
    "Clause",
    "MatchAny",
    "MatchASInPath",
    "MatchCommunity",
    "MatchNeighbor",
    "MatchPathLength",
    "MatchPrefix",
    "Policy",
    "Prepend",
    "RemoveCommunity",
    "SetLocalPref",
    "SetMed",
    "Prefix",
    "PrefixError",
    "AdjRIBIn",
    "AdjRIBOut",
    "LocRIB",
    "DEFAULT_LOCAL_PREF",
    "ORIGIN_EGP",
    "ORIGIN_IGP",
    "ORIGIN_INCOMPLETE",
    "Route",
    "BGPRouter",
    "Relationship",
    "export_policy",
    "import_policy",
    "is_valley_free",
    "Session",
    "SessionError",
    "SessionState",
]
