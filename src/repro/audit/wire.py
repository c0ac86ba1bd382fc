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

Every monitored round is Section 3.8 batched (``batching=True`` in both
round functions below — a constant of the audit plane, not a knob): a
minimum-variant prover signs its receipts, commitment statement,
attestation and disclosures as salted leaves under one
:class:`~repro.crypto.batch.RoundSigner` root, so the round signs
k + 1 times (the providers' k announcements plus that root) instead of
3k + 2 + L.  The serial
:func:`run_wire_round` and the off-wire :func:`run_offwire_round` are
the only places the serving stack builds a round, so every host's trail
stays byte-identical to the reference ``Monitor``'s.  An injected
``prover`` (a Byzantine probe) runs as given; the engine's own default
stays the paper's per-disclosure protocol.

Both return the report's receipt
(:meth:`~repro.pvr.session.SessionReport.receipt`), not its transcript:
it keeps the verdicts, equivocations and evidence the judge needs, and
the stats carry ``wire_digest``, one SHA-256 over what the round sent.
A worker's result frame and the serial monitor's event strip the
transcript at the same point, so parity holds by construction;
:meth:`~repro.audit.monitor.Monitor.replay` re-derives a transcript off
the wire (:func:`replay_round`) and checks it against the digest.

Crypto cost is measured via the keystore's operation counters and the
obs clock; transport cost via the network's byte/message counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.audit.choosers import ChooserRef, resolve as resolve_chooser
from repro.bgp.network import BGPNetwork
from repro.crypto.keystore import KeyStore
from repro.net.simnet import Meter
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
    """Cost accounting for one wire round, and a digest of what it sent.

    ``recipients`` carries the full recipient set (plural under the
    promise-4 cross-check); ``recipient`` is its first member, a field
    of every journaled event.  ``wire_digest`` is the round's
    :meth:`~repro.net.simnet.Meter.digest`: one SHA-256 over the
    canonical encodings of every payload it put on the wire (interceptor
    substitutes included), in a canonical order and with multiplicity —
    the same on or off the wire, and kept by a reused event.
    ``injected`` marks a round that ran an injected prover (a Byzantine
    probe), which :meth:`~repro.audit.monitor.Monitor.replay` refuses.
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
    wire_digest: bytes = b""
    injected: bool = False


#: what one executed round yields, on or off the wire
RoundResult = Tuple[SessionReport, RoundStats]


def round_randomness(seed, round: int) -> Callable[[int], bytes]:
    """The audit plane's commitment-nonce and leaf-salt source for one
    round.

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
    round's :meth:`~repro.pvr.session.SessionReport.receipt` plus its
    cost accounting and wire digest.
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
        report, stats = _run_wire_round(
            network,
            keystore,
            spec,
            routes,
            round=round,
            prover=prover,
            chooser=chooser,
            random_bytes=random_bytes,
        )
        return report.receipt(), stats
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
    messages_before = transport.delivered
    with Stopwatch() as watch, transport.metered() as meter:
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
        bytes=meter.bytes,
        wire_digest=meter.digest(),
        signatures=keystore.sign_count - sign_before,
        verifications=keystore.verify_count - verify_before,
        wall_seconds=watch.seconds,
        injected=prover is not None,
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
) -> Tuple[int, Meter]:
    """The message count and :class:`~repro.net.simnet.Meter` (bytes
    and wire digest) a :func:`run_wire_round` of this session would
    have recorded, computed without a network.

    :func:`run_offwire_round` verifies in memory; replaying the
    transport cost model here is what makes a sharded round report the
    *same* byte/message counts and digest as the serial wire path
    instead of zero.  The model mirrors the wire round exactly — one
    message per signed announcement, one view per party, the commitment
    statement broadcast to every neighbor of the prover — and prices
    each payload once with :meth:`~repro.net.simnet.Meter.price`, what
    a wire round's meter does per message.  It is exact when the network
    is quiescent and no interceptor is armed (both true on the serve
    path: epochs only run at quiescence, and Byzantine probes never ship
    to workers).
    """
    meter = Meter()
    messages = 0
    for _, ann in _announcement_senders(session, announcements):
        messages += 1
        meter.price(AnnouncePayload(ann))
    for view in views.values():
        messages += 1
        meter.price(ViewPayload(view))
    if statement is not None and neighbor_count > 0:
        messages += neighbor_count
        meter.price(CommitPayload(statement), copies=neighbor_count)
    return messages, meter


def replay_round(
    keystore: KeyStore,
    spec: PromiseSpec,
    routes: Mapping[str, object],
    *,
    round: int,
    rng_seed: object,
    chooser: ChooserRef = None,
    neighbor_count: int = 0,
) -> RoundResult:
    """One planned round in memory, its report's transcript kept: what
    :func:`run_offwire_round` computes before it keeps the receipt, and
    what :meth:`~repro.audit.monitor.Monitor.replay` re-derives a
    recorded event's transcript with.

    Same spec, round, inputs and ``round_randomness(rng_seed, round)``
    nonce stream ⇒ same bytes as the monitor's wire round.  The session
    is driven phase by phase so its artifacts feed
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
        messages, meter = modeled_wire_stats(
            session, announcements, views, statement, neighbor_count
        )
    return report, _round_stats(
        report,
        messages=messages,
        bytes=meter.bytes,
        wire_digest=meter.digest(),
        signatures=view.sign_count,
        verifications=view.verify_count,
        wall_seconds=watch.seconds,
    )


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
    """One planned round in memory: the same pair
    :func:`run_wire_round` returns — the receipt, the cost
    accounting and the wire digest — computed without a network by
    :func:`replay_round`.  Shard workers execute fresh plan entries
    through this, and the cluster's parity self-check re-proves sampled
    verdicts through it."""
    report, stats = replay_round(
        keystore,
        spec,
        routes,
        round=round,
        rng_seed=rng_seed,
        chooser=chooser,
        neighbor_count=neighbor_count,
    )
    return report.receipt(), stats


def reports_match(replay: RoundResult, recorded: RoundResult) -> bool:
    """Whether a replayed round proved and sent exactly what the
    recorded one did: verdicts, equivocations, evidence, complaints and
    the wire digest — the comparison the online parity self-checks
    count failures of."""
    (replayed, replayed_stats), (report, stats) = replay, recorded
    return (
        replayed.verdicts == report.verdicts
        and replayed.equivocations == report.equivocations
        and replayed.all_evidence() == report.all_evidence()
        and replayed.all_complaints() == report.all_complaints()
        and replayed_stats.wire_digest == stats.wire_digest
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
