"""PVR attached to a running BGP network — the legacy one-shot API.

.. deprecated-design::
   :class:`PVRDeployment` predates the audit plane and is kept as a thin
   *compatibility façade* over :class:`repro.audit.monitor.Monitor`.
   New code should use the monitor directly: it adds policy selection
   (any promise, per-neighbor overrides), epoch scheduling with bounded
   work, incremental commitment reuse, a verdict-event stream and a
   queryable evidence store.  This module only translates the old
   call shapes — ``watch``/``run_pending``, ``monitored_round``,
   ``verify_prefix_everywhere`` — onto that engine.

The wire payloads (``AnnouncePayload``, ``CommitPayload``,
``ViewPayload``) and the cost records (:class:`RoundStats`,
:class:`DeploymentReport`) now live in :mod:`repro.audit.wire` and are
re-exported here unchanged for existing importers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.audit.monitor import Monitor
from repro.audit.wire import (
    AnnouncePayload,
    CommitPayload,
    DeploymentReport,
    RoundStats,
    ViewPayload,
)
from repro.bgp.network import BGPNetwork
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.promises.spec import Promise, ShortestRoute
from repro.pvr.evidence import Verdict
from repro.pvr.minimum import HonestProver
from repro.pvr.session import PromiseSpec

__all__ = [
    "AnnouncePayload",
    "CommitPayload",
    "DeploymentReport",
    "PVRDeployment",
    "RoundStats",
    "ViewPayload",
]


class PVRDeployment:
    """Runs PVR rounds for monitored ASes on a converged BGP network.

    ``promise`` selects the contract every round verifies (default: the
    paper's promise 2, :class:`~repro.promises.spec.ShortestRoute`); any
    :class:`~repro.promises.spec.Promise` template works — the audit
    plane resolves it to the protocol variant that covers it.
    """

    def __init__(
        self,
        network: BGPNetwork,
        keystore: KeyStore,
        max_length: int = 16,
        promise: Optional[Promise] = None,
    ) -> None:
        self.network = network
        self.keystore = keystore
        self.max_length = max_length
        self.promise = promise if promise is not None else ShortestRoute()
        self.monitor = Monitor(keystore).attach(network)
        self._watched: Dict[str, object] = {}

    @property
    def _round_counter(self) -> int:
        return self.monitor._round_counter

    # -- continuous operation -------------------------------------------------

    def watch(self, asn: str, promise: Optional[Promise] = None) -> None:
        """Arm continuous verification for ``asn``: every decision change
        queues a verification round ("such a task would have to be
        performed for every single BGP update", Section 3.1).

        Rounds cannot run inside the BGP event loop (their messages share
        the links), so they are queued and executed by
        :meth:`run_pending` once the network has quiesced.  This is a
        façade over :meth:`repro.audit.monitor.Monitor.policy`, which
        registers its churn hooks additively — other decision hooks on
        the router are preserved.  Like the legacy implementation,
        re-watching an AS replaces its watcher rather than stacking a
        second one, and the present state is not audited up front
        (``audit_now=False``; the monitor's own default would audit it).
        Beyond the legacy hook, the audit plane also picks up full-table
        resends when a session (re-)establishes — exports that change
        without any local decision are queued too.
        """
        previous = self._watched.pop(asn, None)
        if previous is not None:
            self.monitor.remove_policy(previous)
        self._watched[asn] = self.monitor.policy(
            asn,
            promise if promise is not None else self.promise,
            max_length=self.max_length,
            name=f"watch:{asn}",
            audit_now=False,
        )

    def run_pending(self) -> DeploymentReport:
        """Run one verification epoch over the queued decision changes.

        The audit plane's incremental path applies: a queued (AS,
        prefix, recipient) tuple whose inputs are unchanged since its
        last round is served from the commitment cache with zero crypto
        operations (its :class:`RoundStats` entry has ``reused=True``).
        """
        epoch = self.monitor.run_epoch()
        return DeploymentReport(rounds=[e.stats for e in epoch.events])

    def monitored_round(
        self,
        prover_as: str,
        prefix: Prefix,
        recipient: str,
        prover: HonestProver | None = None,
        promise: Optional[Promise] = None,
        spec: Optional[PromiseSpec] = None,
    ) -> Tuple[Dict[str, Verdict], RoundStats]:
        """One verification round: ``prover_as`` proves its export of
        ``prefix`` toward ``recipient`` against its current Adj-RIB-In.

        ``promise`` (or a full ``spec``) overrides the deployment's
        contract for this round; ``prover`` injects a Byzantine prover.
        """
        event = self.monitor.audit_once(
            prover_as,
            prefix,
            recipient,
            promise=promise if promise is not None else self.promise,
            spec=spec,
            prover=prover,
            max_length=self.max_length,
        )
        return dict(event.report.verdicts), event.stats

    def verify_prefix_everywhere(
        self, prefix: Prefix, max_rounds: int | None = None
    ) -> DeploymentReport:
        """Run one round for every (AS, exporting neighbor) pair that has
        providers for ``prefix`` — the whole-network deployment sweep."""
        report = DeploymentReport()
        count = 0
        for asn in self.network.as_names():
            router = self.network.router(asn)
            providers = router.adj_rib_in.neighbors_announcing(prefix)
            if not providers:
                continue
            for recipient in router.established_peers():
                if recipient in providers and len(providers) == 1:
                    continue  # the only provider cannot also be the auditor
                if router.adj_rib_out.advertised(recipient, prefix) is None:
                    continue
                if max_rounds is not None and count >= max_rounds:
                    return report
                _, stats = self.monitored_round(asn, prefix, recipient)
                report.rounds.append(stats)
                count += 1
        return report

    # -- promise 4 ------------------------------------------------------------

    def promise4_round(self, prover_as: str, prefix: Prefix):
        """Promise 4 in deployment: A attests its export of ``prefix`` to
        *every* exporting neighbor; recipients gossip the attestations and
        cross-check lengths (see :mod:`repro.pvr.crosscheck`).

        Returns the :class:`repro.pvr.crosscheck.Promise4Result`.  BGP's
        own export already serves everyone the same Loc-RIB route, so an
        honest router always passes; the scenario choosers in crosscheck
        model the discriminating cases.
        """
        from repro.pvr.crosscheck import cross_check
        from repro.pvr.crosscheck import Promise4Result
        from repro.pvr.commitments import make_attestation
        from repro.pvr.announcements import make_announcement

        router = self.network.router(prover_as)
        recipients = [
            peer
            for peer in router.established_peers()
            if router.adj_rib_out.advertised(peer, prefix) is not None
        ]
        if len(recipients) < 2:
            raise ValueError(
                f"{prover_as} exports {prefix} to fewer than two neighbors"
            )
        round_no = self.monitor._next_round()
        best = router.loc_rib.best(prefix)
        attestations = {}
        for recipient in recipients:
            if best is None or best.neighbor is None:
                attestations[recipient] = make_attestation(
                    self.keystore, prover_as, recipient, round_no, None, None
                )
                continue
            announced = router.adj_rib_in.route_from(best.neighbor, prefix)
            provenance = make_announcement(
                self.keystore, announced, best.neighbor, prover_as, round_no
            )
            attestations[recipient] = make_attestation(
                self.keystore, prover_as, recipient, round_no,
                announced.exported_by(prover_as), provenance,
            )
        verdicts = {
            recipient: cross_check(
                self.keystore, recipient, attestations[recipient],
                list(attestations.values()),
            )
            for recipient in recipients
        }
        return Promise4Result(attestations=attestations, verdicts=verdicts)
