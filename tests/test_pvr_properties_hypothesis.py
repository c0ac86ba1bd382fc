"""Property-based tests over the minimum protocol.

Randomized instantiations of the paper's four properties: for arbitrary
announcement patterns the honest protocol is accepted everywhere and
leaks nothing; under each adversary family the deviation is flagged
whenever it is semantically visible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keystore import KeyStore
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver, LyingSuppressor, UnderstatingProver
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge
from repro.pvr.session import PromiseSpec

PFX = Prefix.parse("10.0.0.0/8")
MAX_LEN = 10

# shared, session-expensive resources
_KEYSTORE = KeyStore(seed=77, key_bits=512)
_JUDGE = Judge(_KEYSTORE)

lengths_strategy = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=MAX_LEN)),
    min_size=1,
    max_size=6,
)


def scenario(lengths, round_no, prover=None):
    """The report of one round over a drawn announcement pattern."""
    providers = tuple(f"N{i}" for i in range(1, len(lengths) + 1))
    routes = {}
    for provider, length in zip(providers, lengths):
        if length is None:
            routes[provider] = None
        else:
            routes[provider] = Route(
                prefix=PFX,
                as_path=ASPath(tuple(f"T{j}" for j in range(length))),
                neighbor=provider,
            )
    spec = PromiseSpec(promise=ShortestRoute(), prover="A",
                       providers=providers, recipients=("B",),
                       max_length=MAX_LEN)
    return VerificationSession(
        _KEYSTORE, spec, round=round_no, prover=prover
    ).run(routes)


class TestHonestUniversality:
    @settings(max_examples=40, deadline=None)
    @given(lengths_strategy, st.integers(min_value=1, max_value=10**6))
    def test_honest_rounds_always_clean(self, lengths, round_no):
        report = scenario(lengths, round_no)
        assert report.accuracy_ok
        assert report.confidentiality_ok

    @settings(max_examples=40, deadline=None)
    @given(lengths_strategy, st.integers(min_value=1, max_value=10**6))
    def test_honest_export_is_the_minimum(self, lengths, round_no):
        report = scenario(lengths, round_no)
        present = [l for l in lengths if l is not None]
        attestation = report.transcript.detail.recipient_view.attestation
        if present:
            assert attestation.exported_length() == min(present)
        else:
            assert attestation.route is None


class TestAdversarialUniversality:
    @settings(max_examples=25, deadline=None)
    @given(lengths_strategy, st.integers(min_value=1, max_value=10**6))
    def test_longer_route_flagged_iff_visible(self, lengths, round_no):
        """Exporting the longest route violates the promise exactly when
        the longest differs from the shortest."""
        report = scenario(lengths, round_no,
                          prover=LongerRouteProver(_KEYSTORE))
        present = [l for l in lengths if l is not None]
        semantically_wrong = bool(present) and max(present) != min(present)
        assert report.violation_found() == semantically_wrong
        assert report.adjudicate(_JUDGE).evidence_ok()

    @settings(max_examples=25, deadline=None)
    @given(lengths_strategy, st.integers(min_value=1, max_value=10**6))
    def test_understating_flagged_iff_visible(self, lengths, round_no):
        report = scenario(lengths, round_no,
                          prover=UnderstatingProver(_KEYSTORE))
        present = [l for l in lengths if l is not None]
        semantically_wrong = bool(present) and max(present) != min(present)
        assert report.violation_found() == semantically_wrong
        assert report.adjudicate(_JUDGE).evidence_ok()

    @settings(max_examples=25, deadline=None)
    @given(lengths_strategy, st.integers(min_value=1, max_value=10**6))
    def test_lying_suppressor_flagged_iff_routes_exist(self, lengths, round_no):
        report = scenario(lengths, round_no,
                          prover=LyingSuppressor(_KEYSTORE))
        present = [l for l in lengths if l is not None]
        assert report.violation_found() == bool(present)
        assert report.adjudicate(_JUDGE).evidence_ok()


class TestEvidenceTransferability:
    @settings(max_examples=15, deadline=None)
    @given(lengths_strategy, st.integers(min_value=1, max_value=10**6))
    def test_all_evidence_is_self_contained(self, lengths, round_no):
        """Evidence validates at a judge built from a *fresh* keystore
        view holding only public keys (same key material, no session
        state)."""
        report = scenario(lengths, round_no,
                          prover=UnderstatingProver(_KEYSTORE))
        fresh_judge = Judge(_KEYSTORE)
        for item in report.all_evidence():
            assert fresh_judge.validate(item)
