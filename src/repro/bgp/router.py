"""A BGP speaker: sessions, RIBs, policies and the decision process.

One :class:`BGPRouter` models one AS (the paper reasons at AS granularity
throughout).  The router:

* establishes sessions with neighbors via the FSM in
  :mod:`repro.bgp.session`;
* applies per-neighbor *import* policies to received announcements,
  storing survivors in the Adj-RIB-In;
* runs the decision process whenever a prefix's candidate set changes;
* applies per-neighbor *export* policies, prepends its own AS, and
  announces Loc-RIB changes, suppressing no-op re-announcements via the
  Adj-RIB-Out.

Two hooks exist for the PVR layer and the adversary library:

* decision hooks ``(prefix, candidates, chosen)`` fire after every
  decision — the audit plane uses them to drive verification epochs.
  Any number of hooks may be registered via :meth:`BGPRouter.add_decision_hook`
  (the audit plane, a logger and a test probe can all observe the same
  router);
* ``select_override(prefix, candidates) -> Route | None`` replaces the
  honest decision function — adversarial routers use it to break their
  promises (e.g. export a longer-than-best route).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.bgp.decision import decide
from repro.bgp.messages import Keepalive, Notification, Open, Update
from repro.bgp.policy import PERMIT_ALL, Policy
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRIBIn, AdjRIBOut, LocRIB
from repro.bgp.route import Route
from repro.bgp.session import Session, SessionError, SessionState
from repro.net.simnet import Message, Network, Node

DecisionHook = Callable[[Prefix, List[Route], Optional[Route]], None]
ResyncHook = Callable[[str, tuple], None]
SelectOverride = Callable[[Prefix, List[Route]], Optional[Route]]


class BGPRouter(Node):
    """An AS-level BGP speaker attached to the simulated network."""

    def __init__(self, asn: str) -> None:
        super().__init__(asn)
        self.asn = asn
        self.adj_rib_in = AdjRIBIn()
        self.loc_rib = LocRIB()
        self.adj_rib_out = AdjRIBOut()
        self.sessions: Dict[str, Session] = {}
        self.import_policies: Dict[str, Policy] = {}
        self.export_policies: Dict[str, Policy] = {}
        self.originated: Dict[Prefix, Route] = {}
        self._decision_hooks: List[DecisionHook] = []
        self._resync_hooks: List[ResyncHook] = []
        self.select_override: Optional[SelectOverride] = None
        self.updates_received = 0
        self.updates_sent = 0
        # PVR messages ride the same links as BGP; anything flagged is_pvr
        # is stashed here for the deployment layer instead of entering the
        # BGP state machine
        self.pvr_inbox: List[Message] = []

    # -- configuration ---------------------------------------------------

    def add_peer(
        self,
        peer_as: str,
        import_policy: Policy = PERMIT_ALL,
        export_policy: Policy = PERMIT_ALL,
    ) -> None:
        if peer_as in self.sessions:
            raise ValueError(f"{self.asn}: duplicate peer {peer_as}")
        self.sessions[peer_as] = Session(local_as=self.asn, peer_as=peer_as)
        self.import_policies[peer_as] = import_policy
        self.export_policies[peer_as] = export_policy

    def set_import_policy(self, peer_as: str, policy: Policy) -> None:
        self._require_peer(peer_as)
        self.import_policies[peer_as] = policy

    def set_export_policy(self, peer_as: str, policy: Policy) -> None:
        self._require_peer(peer_as)
        self.export_policies[peer_as] = policy

    def _require_peer(self, peer_as: str) -> None:
        if peer_as not in self.sessions:
            raise KeyError(f"{self.asn}: unknown peer {peer_as}")

    # -- decision hooks ------------------------------------------------------

    def add_decision_hook(self, hook: DecisionHook) -> DecisionHook:
        """Register ``hook`` to fire after every decision (alongside any
        previously registered hooks).  Returns the hook for convenience."""
        self._decision_hooks.append(hook)
        return hook

    def remove_decision_hook(self, hook: DecisionHook) -> None:
        """Unregister a hook added with :meth:`add_decision_hook`."""
        self._decision_hooks.remove(hook)

    def decision_hooks(self) -> tuple:
        """Every active hook, in registration order."""
        return tuple(self._decision_hooks)

    def add_resync_hook(self, hook: ResyncHook) -> ResyncHook:
        """Register ``hook(peer, prefixes)`` to fire when this router
        resends its full table to ``peer`` (session establishment or
        re-establishment).  No decision runs on that path, so decision
        hooks stay silent — yet the export set toward ``peer`` changes;
        the audit plane listens here to re-audit those exports."""
        self._resync_hooks.append(hook)
        return hook

    def remove_resync_hook(self, hook: ResyncHook) -> None:
        self._resync_hooks.remove(hook)

    # -- session management ------------------------------------------------

    def start_session(self, network: Network, peer_as: str) -> None:
        self._require_peer(peer_as)
        session = self.sessions[peer_as]
        if session.state == SessionState.IDLE:
            network.send(self.asn, peer_as, session.start())

    def start_all_sessions(self, network: Network) -> None:
        for peer_as in sorted(self.sessions):
            self.start_session(network, peer_as)

    def established_peers(self) -> List[str]:
        return sorted(
            peer for peer, session in self.sessions.items() if session.established
        )

    def drop_peer(self, network: Network, peer_as: str) -> None:
        """Administratively drop the session with ``peer_as``: reset the
        FSM and withdraw everything learned over it (decisions rerun, so
        hooks fire).  The session can be re-established later with
        :meth:`start_session`."""
        self._require_peer(peer_as)
        self.sessions[peer_as].reset()
        self._flush_peer(network, peer_as)

    # -- origination ---------------------------------------------------------

    def originate(self, network: Network, prefix: Prefix) -> None:
        """Originate ``prefix`` locally and announce it."""
        route = Route(prefix=prefix, neighbor=None)
        self.originated[prefix] = route
        self._rerun_decision(network, prefix)

    def withdraw_origin(self, network: Network, prefix: Prefix) -> None:
        if prefix in self.originated:
            del self.originated[prefix]
            self._rerun_decision(network, prefix)

    # -- message handling -----------------------------------------------------

    def handle_message(self, network: Network, message: Message) -> None:
        payload = message.payload
        peer = message.src
        if getattr(payload, "is_pvr", False):
            self.pvr_inbox.append(message)
            return
        if peer not in self.sessions:
            return  # not a configured peer; ignore
        session = self.sessions[peer]
        try:
            if isinstance(payload, Open):
                was_idle = session.state == SessionState.IDLE
                reply = session.handle_open(payload)
                if was_idle:
                    # passive side: we never sent our own OPEN; do so now
                    network.send(self.asn, peer, Open(asn=self.asn))
                if reply is not None:
                    network.send(self.asn, peer, reply)
            elif isinstance(payload, Keepalive):
                was_established = session.established
                session.handle_keepalive()
                if session.established and not was_established:
                    network.send(self.asn, peer, Keepalive())
                    self._send_full_table(network, peer)
            elif isinstance(payload, Notification):
                session.handle_notification(payload)
                self._flush_peer(network, peer)
            elif isinstance(payload, Update):
                if not session.established:
                    raise SessionError("UPDATE before session establishment")
                self._handle_update(network, peer, payload)
            else:
                raise SessionError(f"unknown message {type(payload).__name__}")
        except SessionError:
            session.reset()
            self._flush_peer(network, peer)

    # -- update processing -------------------------------------------------

    def _handle_update(self, network: Network, peer: str, update: Update) -> None:
        self.updates_received += 1
        touched: List[Prefix] = []
        for prefix in update.withdrawn:
            if self.adj_rib_in.withdraw(peer, prefix) is not None:
                touched.append(prefix)
        if update.announced is not None:
            route = update.announced.with_neighbor(peer)
            # loop prevention discards the route, as does an import policy
            # that rejects it
            imported = (
                None
                if route.as_path.has_loop_for(self.asn)
                else self.import_policies[peer].apply(route)
            )
            if imported is not None:
                self.adj_rib_in.insert(peer, imported)
                touched.append(imported.prefix)
            # a discarded announcement still replaces the peer's previous
            # one for that prefix: an implicit withdraw
            elif self.adj_rib_in.withdraw(peer, route.prefix) is not None:
                touched.append(route.prefix)
        for prefix in dict.fromkeys(touched):
            self._rerun_decision(network, prefix)

    def candidates(self, prefix: Prefix) -> List[Route]:
        """Current decision input: received routes plus local origination."""
        found = list(self.adj_rib_in.candidates(prefix))
        if prefix in self.originated:
            found.append(self.originated[prefix])
        return found

    def _rerun_decision(self, network: Network, prefix: Prefix) -> None:
        candidates = self.candidates(prefix)
        if self.select_override is not None:
            best = self.select_override(prefix, candidates)
        else:
            best = decide(candidates)
        for hook in self._decision_hooks:
            hook(prefix, candidates, best)
        if self.loc_rib.set_best(prefix, best):
            self._propagate(network, prefix)

    # -- export ------------------------------------------------------------

    def _propagate(self, network: Network, prefix: Prefix) -> None:
        for peer in self.established_peers():
            self._announce_to(network, peer, prefix)

    def _send_full_table(self, network: Network, peer: str) -> None:
        prefixes = self.loc_rib.prefixes()
        for prefix in prefixes:
            self._announce_to(network, peer, prefix)
        for hook in self._resync_hooks:
            hook(peer, prefixes)

    def _announce_to(self, network: Network, peer: str, prefix: Prefix) -> None:
        best = self.loc_rib.best(prefix)
        outgoing: Optional[Route] = None
        if best is not None:
            # split-horizon: do not advertise a route back to the neighbor
            # it was learned from
            if best.neighbor != peer:
                exported = self.export_policies[peer].apply(best)
                if exported is not None:
                    outgoing = exported.exported_by(self.asn)
        previously = self.adj_rib_out.advertised(peer, prefix)
        if outgoing is not None:
            if previously == outgoing:
                return  # duplicate suppression
            self.adj_rib_out.record(peer, outgoing)
            network.send(self.asn, peer, Update(announced=outgoing))
            self.updates_sent += 1
        elif previously is not None:
            self.adj_rib_out.clear(peer, prefix)
            network.send(self.asn, peer, Update(withdrawn=(prefix,)))
            self.updates_sent += 1

    def _flush_peer(self, network: Network, peer: str) -> None:
        """Session loss: drop everything learned from ``peer``."""
        for prefix in self.adj_rib_in.drop_neighbor(peer):
            self._rerun_decision(network, prefix)
        for prefix in self.adj_rib_out.prefixes_to(peer):
            self.adj_rib_out.clear(peer, prefix)
