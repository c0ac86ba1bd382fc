"""Gossip layer for equivocation detection (Section 3.2 / 3.6).

After an AS publishes a signed commitment (the bit ``c`` in Example #1, or
the Merkle root of its route-flow graph in the general protocol), its
neighbors "gossip about c to ensure that they all have the same view".  A
Byzantine AS that shows different commitments to different neighbors — a
*split view* or equivocation attack — is caught as soon as two neighbors
compare notes: two properly signed, conflicting statements for the same
(AS, topic, round) are transferable proof of misbehavior, because an
honest AS signs only one statement per slot.

This module is protocol-agnostic: a *statement* is any canonical value
signed by its author under a ``(author, topic, round)`` slot.  The PVR
layer gossips commitment roots through it; the D4 ablation benchmark turns
it off to demonstrate the split-view attack succeeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.crypto.keystore import KeyStore
from repro.util.encoding import canonical_encode


@dataclass(frozen=True)
class SignedStatement:
    """A value signed by ``author`` for gossip slot ``(topic, round)``."""

    author: str
    topic: str
    round: int
    value: Any
    signature: bytes

    def signed_bytes(self) -> bytes:
        return statement_bytes(self.author, self.topic, self.round, self.value)

    def canonical(self) -> bytes:
        return canonical_encode(
            (
                "signed-statement",
                self.author,
                self.topic,
                self.round,
                canonical_encode(self.value),
                self.signature,
            )
        )


def statement_bytes(author: str, topic: str, round: int, value: Any) -> bytes:
    """The canonical byte string covered by a statement signature."""
    return canonical_encode(
        ("pvr-statement", author, topic, round, canonical_encode(value))
    )


def make_statement(
    keystore: KeyStore, author: str, topic: str, round: int, value: Any
) -> SignedStatement:
    """Sign ``value`` into the gossip slot ``(author, topic, round)``."""
    signature = keystore.sign(
        author, statement_bytes(author, topic, round, value)
    )
    return SignedStatement(
        author=author, topic=topic, round=round, value=value, signature=signature
    )


@dataclass(frozen=True)
class EquivocationRecord:
    """Two conflicting signed statements for the same slot.

    This is *evidence* in the paper's sense: any third party holding the
    author's public key can check both signatures and observe the
    conflicting values.
    """

    first: SignedStatement
    second: SignedStatement

    def slot(self) -> Tuple[str, str, int]:
        return (self.first.author, self.first.topic, self.first.round)

    def verify(self, keystore: KeyStore) -> bool:
        """A third-party (judge) check that the evidence is genuine."""
        a, b = self.first, self.second
        if (a.author, a.topic, a.round) != (b.author, b.topic, b.round):
            return False
        if canonical_encode(a.value) == canonical_encode(b.value):
            return False  # not actually conflicting
        return keystore.verify(
            a.author, a.signed_bytes(), a.signature
        ) and keystore.verify(b.author, b.signed_bytes(), b.signature)


class GossipLayer:
    """One participant's view of gossiped statements.

    Each PVR participant owns a ``GossipLayer``.  Statements received
    directly from their author or relayed by other neighbors are merged
    with :meth:`observe`; conflicting signed statements for one slot
    surface as :class:`EquivocationRecord` evidence.

    Statements whose signature does not verify are rejected outright —
    a Byzantine *relayer* must not be able to frame an honest author by
    forwarding a corrupted statement.
    """

    def __init__(self, owner: str, keystore: KeyStore) -> None:
        self.owner = owner
        self._keystore = keystore
        self._seen: Dict[Tuple[str, str, int], SignedStatement] = {}
        self._evidence: List[EquivocationRecord] = []

    def observe(self, statement: SignedStatement) -> EquivocationRecord | None:
        """Merge one statement; returns equivocation evidence if detected.

        A statement whose value equals the one already held for its slot
        is ignored unverified: valid or forged, it proves nothing new.
        """
        slot = (statement.author, statement.topic, statement.round)
        existing = self._seen.get(slot)
        if existing is not None and (
            canonical_encode(existing.value) == canonical_encode(statement.value)
        ):
            return None  # consistent duplicate
        if not self._keystore.verify(
            statement.author, statement.signed_bytes(), statement.signature
        ):
            return None  # forged relay; ignore
        if existing is None:
            self._seen[slot] = statement
            return None
        record = EquivocationRecord(first=existing, second=statement)
        self._evidence.append(record)
        return record

    def observe_all(
        self, statements: Iterable[SignedStatement]
    ) -> List[EquivocationRecord]:
        found = []
        for statement in statements:
            record = self.observe(statement)
            if record is not None:
                found.append(record)
        return found

    def statement(
        self, author: str, topic: str, round: int
    ) -> SignedStatement | None:
        return self._seen.get((author, topic, round))

    def statements(self) -> tuple:
        return tuple(self._seen.values())

    @property
    def evidence(self) -> tuple:
        return tuple(self._evidence)


def exchange(layers: Iterable[GossipLayer]) -> List[EquivocationRecord]:
    """Full pairwise gossip among ``layers``; returns all new evidence.

    Models the steady state of the paper's gossip assumption: every
    neighbor eventually sees every statement any other neighbor received.
    """
    layer_list = list(layers)
    all_statements: list[SignedStatement] = []
    for layer in layer_list:
        all_statements.extend(layer.statements())
    found: List[EquivocationRecord] = []
    for layer in layer_list:
        found.extend(layer.observe_all(all_statements))
    return found
