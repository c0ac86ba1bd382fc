"""Failure injection at the transport layer: PVR messages that are
dropped or tampered in flight must surface in the verdicts, because
verification now consumes the *received* views."""

import pytest

from repro.audit import Monitor, ViewPayload
from repro.bgp.network import BGPNetwork
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.net.simnet import Message
from repro.promises.spec import NoLongerThanOthers

PFX = Prefix.parse("10.0.0.0/8")


@pytest.fixture
def deployed():
    net = BGPNetwork()
    for asn in ("O", "X", "N1", "N2", "N3", "A", "B"):
        net.add_as(asn)
    net.connect("O", "X")
    net.connect("X", "N1")
    net.connect("X", "N3")
    net.connect("O", "N2")
    for n in ("N1", "N2", "N3"):
        net.connect(n, "A")
    net.connect("A", "B")
    net.establish_sessions()
    net.originate("O", PFX)
    net.run_to_quiescence()
    return net, Monitor(KeyStore(seed=21, key_bits=512)).attach(net)


class TestDrops:
    def test_clean_channel_baseline(self, deployed):
        net, monitor = deployed
        event = monitor.audit_once("A", PFX, "B", max_length=8)
        assert event.stats.violations == 0

    def test_dropped_provider_view_yields_complaints(self, deployed):
        net, monitor = deployed

        def drop_views_to_n2(message: Message):
            if message.dst == "N2" and isinstance(message.payload, ViewPayload):
                return None
            return message

        net.transport.set_interceptor("A", drop_views_to_n2)
        verdicts = monitor.audit_once("A", PFX, "B", max_length=8).report.verdicts
        net.transport.clear_interceptor("A")
        assert not verdicts["N2"].ok
        claims = {c.claim for c in verdicts["N2"].complaints()}
        # N2 announced a route, so the silent treatment is a violation
        assert "missing-commitment" in claims or "missing-receipt" in claims

    def test_dropped_recipient_view_yields_complaints(self, deployed):
        net, monitor = deployed

        def drop_views_to_b(message: Message):
            if message.dst == "B" and isinstance(message.payload, ViewPayload):
                return None
            return message

        net.transport.set_interceptor("A", drop_views_to_b)
        verdicts = monitor.audit_once("A", PFX, "B", max_length=8).report.verdicts
        net.transport.clear_interceptor("A")
        assert not verdicts["B"].ok

    def test_channel_recovers_after_interceptor_cleared(self, deployed):
        net, monitor = deployed
        net.transport.set_interceptor("A", lambda m: None if isinstance(
            m.payload, ViewPayload) else m)
        monitor.audit_once("A", PFX, "B", max_length=8)
        net.transport.clear_interceptor("A")
        event = monitor.audit_once("A", PFX, "B", max_length=8)
        assert event.stats.violations == 0

    def test_dropped_crosscheck_attestation_is_loud_and_not_cached(self):
        """Promise 4: a recipient whose attestation was dropped in flight
        complains (nothing transferable against an honest prover), the
        event is not ok, and the tuple is re-proved next epoch instead of
        being served from the cache."""
        net = BGPNetwork()
        for asn in ("O", "N1", "N2", "A", "B1", "B2"):
            net.add_as(asn)
        for a, b in (("O", "N1"), ("O", "N2"), ("N1", "A"), ("N2", "A"),
                     ("A", "B1"), ("A", "B2")):
            net.connect(a, b)
        net.establish_sessions()
        net.originate("O", PFX)
        net.run_to_quiescence()
        monitor = Monitor(KeyStore(seed=22, key_bits=512)).attach(net)
        monitor.policy("A", NoLongerThanOthers(), recipients=("B1", "B2"),
                       max_length=8)

        net.transport.set_interceptor("A", lambda m: None if (
            m.dst == "B1" and isinstance(m.payload, ViewPayload)) else m)
        (event,) = monitor.run_epoch().events
        net.transport.clear_interceptor("A")
        assert set(event.report.verdicts) == {"B1", "B2"}
        b1 = event.report.verdicts["B1"]
        assert not b1.ok
        assert {c.claim for c in b1.complaints()} == {"missing-attestation"}
        assert b1.evidence() == ()
        assert event.report.verdicts["B2"].ok
        assert not event.ok() and event.stats.violations == 1

        monitor.resync()
        (again,) = monitor.run_epoch().events
        assert not again.reused
        assert again.ok()


class TestTampering:
    def test_tampered_view_in_flight_is_attributable_nonsense(self, deployed):
        """A man-in-the-middle replacing A's recipient view with an older
        or altered one cannot frame A: signatures bind author and round,
        so the verdict shows complaints, and no *evidence* (which would
        require A's signature over the forged content) can be produced."""
        net, monitor = deployed

        def corrupt(message: Message):
            if message.dst == "B" and isinstance(message.payload, ViewPayload):
                view = message.payload.view
                # strip the attestation: B must complain, not convict
                from repro.pvr.minimum import RecipientView

                stripped = RecipientView(
                    vector=view.vector, attestation=None,
                    disclosures=view.disclosures,
                )
                return Message(src=message.src, dst=message.dst,
                               payload=ViewPayload(stripped))
            return message

        net.transport.set_interceptor("A", corrupt)
        verdicts = monitor.audit_once("A", PFX, "B", max_length=8).report.verdicts
        net.transport.clear_interceptor("A")
        b = verdicts["B"]
        assert not b.ok
        assert b.evidence() == ()  # nothing transferable against honest A
        assert b.complaints()
