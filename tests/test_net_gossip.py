"""Tests for gossip-based equivocation detection."""

import dataclasses

import pytest

from repro.crypto.batch import RoundSigner
from repro.net.gossip import (
    EquivocationRecord,
    GossipLayer,
    exchange,
    make_statement,
)
from repro.pvr.evidence import EquivocationEvidence
from repro.pvr.judge import Judge


@pytest.fixture
def parties(keystore):
    for asn in ("A", "N1", "N2", "B"):
        keystore.register(asn)
    return keystore


class TestSignedStatements:
    def test_statement_verifies(self, parties):
        s = make_statement(parties, "A", "commitment", 1, b"\x01" * 32)
        layer = GossipLayer("N1", parties)
        assert layer.observe(s) is None
        assert layer.statement("A", "commitment", 1) == s

    def test_forged_statement_ignored(self, parties):
        s = make_statement(parties, "A", "commitment", 1, b"\x01" * 32)
        forged = type(s)(
            author=s.author, topic=s.topic, round=s.round,
            value=b"\x02" * 32, signature=s.signature,
        )
        layer = GossipLayer("N1", parties)
        assert layer.observe(forged) is None
        assert layer.statement("A", "commitment", 1) is None

    def test_unknown_author_ignored(self, parties):
        s = make_statement(parties, "A", "t", 1, b"v")
        relabeled = type(s)(
            author="AS404", topic=s.topic, round=s.round,
            value=s.value, signature=s.signature,
        )
        layer = GossipLayer("N1", parties)
        assert layer.observe(relabeled) is None


class TestEquivocationDetection:
    def test_conflict_detected(self, parties):
        s1 = make_statement(parties, "A", "commitment", 1, b"\x01" * 32)
        s2 = make_statement(parties, "A", "commitment", 1, b"\x02" * 32)
        layer = GossipLayer("N1", parties)
        layer.observe(s1)
        record = layer.observe(s2)
        assert record is not None
        assert record.slot() == ("A", "commitment", 1)
        assert record.verify(parties)

    def test_consistent_duplicate_not_flagged(self, parties):
        s1 = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        s2 = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        layer = GossipLayer("N1", parties)
        layer.observe(s1)
        assert layer.observe(s2) is None

    def test_different_rounds_not_conflicting(self, parties):
        layer = GossipLayer("N1", parties)
        layer.observe(make_statement(parties, "A", "c", 1, b"\x01" * 32))
        assert layer.observe(make_statement(parties, "A", "c", 2, b"\x02" * 32)) is None

    def test_different_topics_not_conflicting(self, parties):
        layer = GossipLayer("N1", parties)
        layer.observe(make_statement(parties, "A", "c1", 1, b"\x01" * 32))
        assert layer.observe(make_statement(parties, "A", "c2", 1, b"\x02" * 32)) is None

    def test_evidence_accumulates(self, parties):
        layer = GossipLayer("N1", parties)
        layer.observe(make_statement(parties, "A", "c", 1, b"\x01" * 32))
        layer.observe(make_statement(parties, "A", "c", 1, b"\x02" * 32))
        assert len(layer.evidence) == 1


class TestExchange:
    def test_split_view_caught_by_exchange(self, parties):
        """A shows one commitment to N1 and another to N2; pairwise gossip
        surfaces the conflict at both neighbors."""
        to_n1 = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        to_n2 = make_statement(parties, "A", "c", 1, b"\x02" * 32)
        n1 = GossipLayer("N1", parties)
        n2 = GossipLayer("N2", parties)
        n1.observe(to_n1)
        n2.observe(to_n2)
        records = exchange([n1, n2])
        assert records, "split view must be detected"
        assert all(r.verify(parties) for r in records)

    def test_no_gossip_no_detection(self, parties):
        """Ablation D4: without gossip, neither neighbor alone sees the
        conflict."""
        to_n1 = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        to_n2 = make_statement(parties, "A", "c", 1, b"\x02" * 32)
        n1 = GossipLayer("N1", parties)
        n2 = GossipLayer("N2", parties)
        assert n1.observe(to_n1) is None
        assert n2.observe(to_n2) is None
        assert n1.evidence == () and n2.evidence == ()

    def test_honest_exchange_produces_no_evidence(self, parties):
        statement = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        layers = [GossipLayer(n, parties) for n in ("N1", "N2", "B")]
        for layer in layers:
            layer.observe(statement)
        assert exchange(layers) == []


class TestHeldStatements:
    """A layer checks the slot before the signature: a statement equal
    to the one it already holds proves nothing new, valid or not."""

    @staticmethod
    def layers_holding(parties, statement):
        layers = [GossipLayer(name, parties) for name in ("N1", "N2", "B")]
        for layer in layers:
            layer.observe(statement)
        return layers

    def test_exchange_does_not_reverify_held_statements(self, parties):
        s = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        layers = self.layers_holding(parties, s)
        before = parties.verify_count
        assert exchange(layers) == []
        assert parties.verify_count == before

    def test_garbled_relay_of_the_held_value_ignored(self, parties):
        s = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        garbled = dataclasses.replace(
            s, signature=bytes(len(s.signature))
        )
        layer = self.layers_holding(parties, s)[0]
        assert layer.observe(garbled) is None
        assert layer.statement("A", "c", 1) is s
        assert layer.evidence == ()
        # with nothing held, the same relay is checked and rejected
        fresh = GossipLayer("N3", parties)
        assert fresh.observe(garbled) is None
        assert fresh.statement("A", "c", 1) is None

    def test_conflict_under_one_signed_root_convicts(self, parties):
        signer = RoundSigner(parties, "A")
        s1 = make_statement(signer, "A", "c", 1, b"\x01" * 32)
        s2 = make_statement(signer, "A", "c", 1, b"\x02" * 32)
        signer.seal()
        layers = self.layers_holding(parties, s1)
        split = GossipLayer("N3", parties)  # shown the other value
        split.observe(s2)
        records = exchange(layers + [split])
        assert records and all(
            isinstance(r, EquivocationRecord) for r in records
        )
        judge = Judge(parties)
        assert all(
            judge.validate(EquivocationEvidence(record=r)) for r in records
        )


class TestJudgeValidation:
    def test_forged_evidence_rejected(self, parties):
        """Accuracy: evidence built from a forged second statement must not
        convict an honest AS."""
        honest = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        forged = type(honest)(
            author="A", topic="c", round=1,
            value=b"\x02" * 32, signature=honest.signature,
        )
        record = EquivocationRecord(first=honest, second=forged)
        assert not record.verify(parties)

    def test_non_conflicting_evidence_rejected(self, parties):
        s = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        record = EquivocationRecord(first=s, second=s)
        assert not record.verify(parties)

    def test_cross_slot_evidence_rejected(self, parties):
        s1 = make_statement(parties, "A", "c", 1, b"\x01" * 32)
        s2 = make_statement(parties, "A", "c", 2, b"\x02" * 32)
        record = EquivocationRecord(first=s1, second=s2)
        assert not record.verify(parties)
