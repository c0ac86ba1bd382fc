"""The transport-coupled verification round, shared by the audit plane.

The engine (:mod:`repro.pvr.engine`) verifies in memory; this module
runs one session *in situ* on a :class:`~repro.bgp.network.BGPNetwork`:
every protocol message travels over the same simulated links as the BGP
updates, so byte/message/latency accounting includes PVR's real
transport cost, and a dropped or tampered wire message surfaces in the
verdicts because verification consumes what actually *arrived*.

Message flow per round, mirroring Section 3.3 (the same flow serves all
four protocol variants, since the unified engine discloses one view per
party regardless of variant):

1. each provider re-announces its current route with a PVR signature
   (``AnnouncePayload``);
2. the prover receipts, commits, and broadcasts its signed commitment
   statement to every neighbor (``CommitPayload``) — the gossip
   substrate;
3. the prover sends each party its round view (``ViewPayload``) —
   provider/recipient views for the single-operator protocols,
   ``(announcement, receipt)`` pairs and export attestations for the
   graph variant, per-recipient attestations for the cross-check;
4. parties verify locally from the received views and gossip the
   statements pairwise.

Every monitored round runs the Section 3.8 batched-disclosure prover
(``batching=True`` in both round functions below — a constant of the
audit plane, not a knob): a minimum-variant round signs its k + L
disclosures under one :class:`~repro.pvr.batching.DisclosureBatch`
root, 2k + 3 signatures instead of 3k + 2 + L.  The serial
:func:`run_wire_round` and the off-wire :func:`run_offwire_round` are
the only places the serving stack builds a round, so every host's trail
stays byte-identical to the reference ``Monitor``'s.  An injected
``prover`` (a Byzantine probe) runs as given; the engine's own default
stays the paper's per-disclosure protocol.

Crypto cost is measured via the keystore's operation counters and the
obs clock; transport cost via the network's byte/message counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.audit.choosers import ChooserRef, resolve as resolve_chooser
from repro.bgp.network import BGPNetwork
from repro.crypto.keystore import KeyStore
from repro.obs.trace import Stopwatch
from repro.pvr.engine import VerificationSession
from repro.pvr.session import PromiseSpec, SessionReport
from repro.util.rng import DeterministicRandom


@dataclass(frozen=True)
class AnnouncePayload:
    """Provider -> prover: the PVR-signed announcement."""

    announcement: object
    is_pvr = True


@dataclass(frozen=True)
class CommitPayload:
    """Prover -> all neighbors: the signed commitment statement."""

    statement: object
    is_pvr = True


@dataclass(frozen=True)
class ViewPayload:
    """Prover -> one party: its round view."""

    view: object
    is_pvr = True


@dataclass
class RoundStats:
    """Cost accounting for one wire round.

    ``recipients`` carries the full recipient set (plural under the
    promise-4 cross-check); ``recipient`` is its first member, a field
    of every journaled event.
    """

    prover: str
    recipient: str
    providers: Tuple[str, ...]
    recipients: Tuple[str, ...] = ()
    messages: int = 0
    bytes: int = 0
    signatures: int = 0
    verifications: int = 0
    wall_seconds: float = 0.0
    violations: int = 0
    equivocations: int = 0
    reused: bool = False


#: what one executed round yields, on or off the wire
RoundResult = Tuple[SessionReport, RoundStats]


def round_randomness(seed, round: int) -> Callable[[int], bytes]:
    """The audit plane's commitment-nonce source for one round.

    Deriving nonces deterministically from ``(seed, round)`` makes every
    monitored round *replayable*: a one-shot
    :class:`~repro.pvr.engine.VerificationSession` constructed with the
    same spec, round and randomness (and ``batching=True``, like every
    monitored round) reproduces the monitor's transcript byte for byte —
    the property the incremental-reuse tests pin down.
    """
    return DeterministicRandom(seed).fork(f"audit-round:{round}").bytes


def _announcement_senders(
    session: VerificationSession, announcements: Mapping[str, object]
) -> List[Tuple[str, object]]:
    """Pair each announcement with the party that puts it on the wire.

    Single-operator and cross-check announcements are keyed by provider
    name already; graph-variant announcements are keyed by input
    *variable* and owned by the variable's party (a party owning several
    input variables sends one message per variable).  A provider with no
    route this round produced no signed announcement, so nothing of its
    goes on the wire.
    """
    if session.variant != "graph":
        return [
            (party, ann)
            for party, ann in announcements.items()
            if ann is not None
        ]
    sends: List[Tuple[str, object]] = []
    for vertex in session.plan.inputs():
        ann = announcements.get(vertex.name)
        if ann is not None:
            sends.append((vertex.party, ann))
    return sends


def run_wire_round(
    network: BGPNetwork,
    keystore: KeyStore,
    spec: PromiseSpec,
    routes: Mapping[str, object],
    *,
    round: int,
    prover: object = None,
    chooser: object = None,
    random_bytes: Callable[[int], bytes] | None = None,
) -> RoundResult:
    """One verification round with every protocol message on the wire.

    ``routes`` is the prover's current Adj-RIB-In slice (party -> Route
    or None) — what each provider will re-announce.  Returns the
    engine's :class:`~repro.pvr.session.SessionReport` plus the round's
    cost accounting.
    """
    # an injected prover instance (a Byzantine deviation) that was built
    # without a nonce source adopts the round's deterministic stream for
    # the duration of this round (restored afterwards, so a reused
    # instance gets each round's own stream): monitored Byzantine rounds
    # are replayable — and a serving host's probe transcript is
    # byte-identical to the reference monitor's
    seeded_prover = (
        prover is not None
        and random_bytes is not None
        and getattr(prover, "random_bytes", False) is None
    )
    if seeded_prover:
        prover.random_bytes = random_bytes
    try:
        return _run_wire_round(
            network,
            keystore,
            spec,
            routes,
            round=round,
            prover=prover,
            chooser=chooser,
            random_bytes=random_bytes,
        )
    finally:
        if seeded_prover:
            prover.random_bytes = None


def _run_wire_round(
    network: BGPNetwork,
    keystore: KeyStore,
    spec: PromiseSpec,
    routes: Mapping[str, object],
    *,
    round: int,
    prover: object,
    chooser: object,
    random_bytes: Callable[[int], bytes] | None,
) -> RoundResult:
    transport = network.transport
    session = VerificationSession(
        keystore,
        spec,
        round=round,
        prover=prover,
        chooser=chooser,
        batching=True,
        random_bytes=random_bytes,
    )

    sign_before = keystore.sign_count
    verify_before = keystore.verify_count
    bytes_before = transport.bytes_sent
    messages_before = transport.delivered
    with Stopwatch() as watch:
        # 1. providers announce over the wire
        announcements = session.announce(routes)
        for party, ann in _announcement_senders(session, announcements):
            transport.send(party, spec.prover, AnnouncePayload(ann))
        transport.run()

        # 2. the prover commits (accept + decide + sign)
        statement = session.commit()

        # 3. distribute commitment + views over the wire
        views = session.disclose()
        for party in views:
            transport.send(spec.prover, party, ViewPayload(views[party]))
        if statement is not None:
            for neighbor in transport.neighbors(spec.prover):
                transport.send(spec.prover, neighbor, CommitPayload(statement))
        transport.run()

        # 4. collective verification from what actually ARRIVED (a
        # dropped or tampered wire message must affect the verdicts),
        # incl. gossip
        received = _collect_views(network, spec.prover, tuple(views))
        _drain_round(network, spec.prover)
        report = session.verify(received=received)

    return report, _round_stats(
        report,
        messages=transport.delivered - messages_before,
        bytes=transport.bytes_sent - bytes_before,
        signatures=keystore.sign_count - sign_before,
        verifications=keystore.verify_count - verify_before,
        wall_seconds=watch.seconds,
    )


def _round_stats(report: SessionReport, **costs) -> RoundStats:
    spec = report.spec
    return RoundStats(
        prover=spec.prover,
        recipient=spec.recipient,
        providers=spec.providers,
        recipients=spec.recipients,
        violations=sum(len(v.violations) for v in report.verdicts.values()),
        equivocations=len(report.equivocations),
        **costs,
    )


def modeled_wire_stats(
    session: VerificationSession,
    announcements: Mapping[str, object],
    views: Mapping[str, object],
    statement: object,
    neighbor_count: int,
) -> Tuple[int, int]:
    """The (messages, bytes) a :func:`run_wire_round` of this session
    would have recorded, computed without a network.

    :func:`run_offwire_round` verifies in memory; replaying the
    transport cost model here is what makes a sharded round report the
    *same* byte/message counts as the serial wire path instead of zero.
    The model mirrors the wire round exactly — one message per signed
    announcement, one view per party, the commitment statement broadcast
    to every neighbor of the prover — and prices each payload with
    :func:`repro.net.simnet.estimate_size`, the same function the
    network's byte counter uses.  It is exact when the network is
    quiescent and no interceptor is armed (both true on the serve path:
    epochs only run at quiescence, and Byzantine probes never ship to
    workers).
    """
    from repro.net.simnet import estimate_size

    messages = 0
    total = 0
    for _, ann in _announcement_senders(session, announcements):
        messages += 1
        total += estimate_size(AnnouncePayload(ann))
    for view in views.values():
        messages += 1
        total += estimate_size(ViewPayload(view))
    if statement is not None and neighbor_count > 0:
        messages += neighbor_count
        total += neighbor_count * estimate_size(CommitPayload(statement))
    return messages, total


def run_offwire_round(
    keystore: KeyStore,
    spec: PromiseSpec,
    routes: Mapping[str, object],
    *,
    round: int,
    rng_seed: object,
    chooser: ChooserRef = None,
    neighbor_count: int = 0,
) -> RoundResult:
    """Replay one planned round in memory: the same pair
    :func:`run_wire_round` returns, computed without a network.

    Same spec, round, inputs and ``round_randomness(rng_seed, round)``
    nonce stream ⇒ same bytes as the monitor's wire round, which is why
    shard workers execute fresh plan entries through this and the serve
    and cluster parity self-checks re-prove sampled verdicts through it.
    The session is driven phase by phase so its artifacts feed
    :func:`modeled_wire_stats`.  Crypto runs on a fresh worker view of
    ``keystore``: the round's counts land in the returned stats and the
    caller's counters do not move (fold them in with
    :meth:`~repro.crypto.keystore.KeyStore.add_counts`).
    """
    view = keystore.worker_view()
    with Stopwatch() as watch:
        session = VerificationSession(
            view,
            spec,
            round=round,
            chooser=resolve_chooser(chooser),
            batching=True,
            random_bytes=round_randomness(rng_seed, round),
        )
        announcements = session.announce(routes)
        statement = session.commit()
        views = session.disclose()
        report = session.verify()
        messages, wire_bytes = modeled_wire_stats(
            session, announcements, views, statement, neighbor_count
        )
    return report, _round_stats(
        report,
        messages=messages,
        bytes=wire_bytes,
        signatures=view.sign_count,
        verifications=view.verify_count,
        wall_seconds=watch.seconds,
    )


def reports_match(replay: SessionReport, report: SessionReport) -> bool:
    """Whether a replayed round proved exactly what the recorded one
    did: verdicts, equivocations, evidence and complaints — the
    comparison the online parity self-checks count failures of."""
    return (
        replay.verdicts == report.verdicts
        and replay.equivocations == report.equivocations
        and replay.all_evidence() == report.all_evidence()
        and replay.all_complaints() == report.all_complaints()
    )


def _collect_views(
    network: BGPNetwork, prover_as: str, parties: Tuple[str, ...]
) -> Dict[str, object]:
    """Drain each party's PVR inbox for this round's view payload."""
    received: Dict[str, object] = {}
    for name in parties:
        router = network.router(name)
        remaining = []
        for message in router.pvr_inbox:
            payload = message.payload
            if message.src == prover_as and isinstance(payload, ViewPayload):
                received[name] = payload.view
            else:
                remaining.append(message)
        router.pvr_inbox[:] = remaining
    return received


def _drain_round(network: BGPNetwork, prover_as: str) -> None:
    """Drop this round's announcement and commitment payloads from the
    inboxes they landed in.

    The views are consumed by :func:`_collect_views`; announcements (at
    the prover) and commitment broadcasts (at every neighbor) exist only
    for transport-cost fidelity and would otherwise accumulate without
    bound across a long-lived monitor's epochs.
    """
    prover = network.router(prover_as)
    prover.pvr_inbox[:] = [
        m for m in prover.pvr_inbox
        if not isinstance(m.payload, AnnouncePayload)
    ]
    for neighbor in network.transport.neighbors(prover_as):
        router = network.router(neighbor)
        router.pvr_inbox[:] = [
            m for m in router.pvr_inbox
            if not (m.src == prover_as
                    and isinstance(m.payload, CommitPayload))
        ]
