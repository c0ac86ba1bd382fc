"""Event-driven network simulator.

The simulator delivers messages between named nodes over point-to-point
links with per-link latency.  Delivery on a link is FIFO (matching TCP
semantics between BGP speakers).  A node is any object exposing
``handle_message(network, message)``; the PVR and BGP layers register
their router objects directly.

Byzantine behaviour is modelled with *interceptors*: a function attached
to a node that may drop, modify or substitute outbound messages on a
per-destination basis.  This is how the adversary library of
:mod:`repro.pvr.adversary` injects equivocation and lies without the
honest-path code knowing anything about faults.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.util.encoding import CanonicalEncodeError, canonical_encode


@dataclass(frozen=True)
class Message:
    """A message in flight: source, destination and opaque payload."""

    src: str
    dst: str
    payload: Any


@dataclass
class Link:
    """A bidirectional link with symmetric latency (in simulated seconds)."""

    a: str
    b: str
    latency: float = 0.01


class Node:
    """Base class for protocol participants.

    Subclasses override :meth:`handle_message`.  The default implementation
    stores messages in an inbox, which is convenient for tests.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.inbox: List[Message] = []

    def handle_message(self, network: "Network", message: Message) -> None:
        self.inbox.append(message)


class Simulator:
    """A priority-queue discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._sequence), action)
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events in time order.

        Stops when the queue drains, simulated time exceeds ``until``, or
        ``max_events`` events have been processed.  Returns the number of
        events processed by this call.
        """
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            time, _, action = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self.now = time
            action()
            processed += 1
            self.events_processed += 1
        return processed

    def pending(self) -> int:
        return len(self._queue)


# An interceptor sees (message) and returns the possibly-modified message,
# None to drop it, or a list of messages to substitute.  A substitute is
# sent by the intercepted node, to any of its neighbours.
Interceptor = Callable[[Message], Optional[Any]]


@dataclass
class Meter:
    """The wire bytes of the messages sent while it was open, and the
    SHA-256 of each one's encoding (:meth:`digest` folds them)."""

    bytes: int = 0
    digests: List[bytes] = field(default_factory=list)

    def price(self, payload: Any, copies: int = 1) -> None:
        """Count ``copies`` messages carrying ``payload``, encoding it
        once."""
        encoded = wire_encoding(payload)
        self.bytes += copies * len(encoded)
        self.digests.extend([hashlib.sha256(encoded).digest()] * copies)

    def digest(self) -> bytes:
        """One SHA-256 over every priced message: the per-message
        digests sorted, so the send order does not matter and each copy
        counts."""
        return hashlib.sha256(b"".join(sorted(self.digests))).digest()


class Network:
    """Nodes plus links plus a simulator; the deployment substrate.

    Messages may only be sent along configured links — attempting to send
    between non-adjacent nodes raises, which catches protocol bugs where
    an AS "magically" talks to a non-neighbor.
    """

    def __init__(self, simulator: Simulator | None = None) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[frozenset, Link] = {}
        self._adjacent: Dict[str, Tuple[str, ...]] = {}
        self._interceptors: Dict[str, Interceptor] = {}
        self.delivered: int = 0
        self._meter: Meter | None = None

    # -- topology -----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        return node

    def add_link(self, a: str, b: str, latency: float = 0.01) -> Link:
        if a == b:
            raise ValueError("self-links are not allowed")
        for name in (a, b):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise ValueError(f"duplicate link {a!r}-{b!r}")
        link = Link(a=a, b=b, latency=latency)
        self._links[key] = link
        for name, other in ((a, b), (b, a)):
            self._adjacent[name] = tuple(
                sorted(self._adjacent.get(name, ()) + (other,))
            )
        return link

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def neighbors(self, name: str) -> tuple:
        """Names of nodes adjacent to ``name``, sorted for determinism."""
        return self._adjacent.get(name, ())

    # -- adversarial hooks ---------------------------------------------

    def set_interceptor(self, name: str, interceptor: Interceptor) -> None:
        """Attach a Byzantine outbound filter to node ``name``."""
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        self._interceptors[name] = interceptor

    def clear_interceptor(self, name: str) -> None:
        self._interceptors.pop(name, None)

    # -- messaging ------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Queue ``payload`` for delivery from ``src`` to ``dst``."""
        link = self._link(src, dst)
        message = Message(src=src, dst=dst, payload=payload)
        interceptor = self._interceptors.get(src)
        if interceptor is None:
            self._schedule_delivery(link, message)
            return
        result = interceptor(message)
        if result is None:
            return  # dropped
        for msg in result if isinstance(result, list) else [result]:
            if msg.src != src:
                raise ValueError(
                    f"an interceptor at {src!r} cannot send as {msg.src!r}"
                )
            self._schedule_delivery(self._link(src, msg.dst), msg)

    def broadcast(self, src: str, payload: Any) -> None:
        """Send ``payload`` to every neighbor of ``src``."""
        for neighbor in self.neighbors(src):
            self.send(src, neighbor, payload)

    @contextmanager
    def metered(self) -> Iterator[Meter]:
        """Price and digest every message sent inside the block
        (:meth:`Meter.price`); outside one, nothing is encoded.  One
        meter at a time: opening a second raises."""
        if self._meter is not None:
            raise RuntimeError("the network is already metered")
        meter = self._meter = Meter()
        try:
            yield meter
        finally:
            self._meter = None

    def _link(self, src: str, dst: str) -> Link:
        link = self._links.get(frozenset((src, dst)))
        if link is None:
            raise ValueError(f"no link between {src!r} and {dst!r}")
        return link

    def _schedule_delivery(self, link: Link, message: Message) -> None:
        if self._meter is not None:
            self._meter.price(message.payload)

        def deliver() -> None:
            self.delivered += 1
            self._nodes[message.dst].handle_message(self, message)

        self.simulator.schedule(link.latency, deliver)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        return self.simulator.run(until=until, max_events=max_events)


def wire_encoding(payload: Any) -> bytes:
    """A payload's bytes on the wire: its canonical encoding where one
    exists, a deterministic repr fallback otherwise.  This is the single
    definition of "bytes on the wire" — a wire round's :class:`Meter`
    and the off-wire cost model both price and digest through it, so
    the two can never disagree."""
    try:
        return canonical_encode(payload)
    except CanonicalEncodeError:
        return repr(payload).encode("utf-8")


def build_network(
    node_names: Iterable[str],
    links: Iterable[tuple],
    node_factory: Callable[[str], Node] = Node,
) -> Network:
    """Convenience constructor used throughout the tests and examples."""
    network = Network()
    for name in node_names:
        network.add_node(node_factory(name))
    for edge in links:
        if len(edge) == 3:
            a, b, latency = edge
            network.add_link(a, b, latency)
        else:
            a, b = edge
            network.add_link(a, b)
    return network
