"""Tests for confidentiality accounting (paper Section 2.3, last bullet)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.promises.spec import ShortestRoute
from repro.pvr import leakage
from repro.pvr.engine import VerificationSession
from repro.pvr.minimum import RoundConfig
from repro.pvr.session import PromiseSpec

PFX = Prefix.parse("10.0.0.0/8")
MAX_LEN = 6


def route(neighbor, length):
    return Route(prefix=PFX,
                 as_path=ASPath(tuple(f"T{i}" for i in range(length))),
                 neighbor=neighbor)


def spec_for(*providers):
    return PromiseSpec(promise=ShortestRoute(), prover="A",
                       providers=providers, recipients=("B",),
                       max_length=MAX_LEN)


class TestFactClosure:
    def test_exists_implies_later(self):
        closed = leakage._close_under_implication({("exists-route-leq", 2)}, 4)
        assert ("exists-route-leq", 3) in closed
        assert ("exists-route-leq", 4) in closed
        assert ("exists-route-leq", 1) not in closed

    def test_no_route_implies_earlier(self):
        closed = leakage._close_under_implication({("no-route-leq", 3)}, 4)
        assert ("no-route-leq", 1) in closed
        assert ("no-route-leq", 4) not in closed


class TestBaselines:
    def test_provider_baseline_only_own_route(self):
        config = RoundConfig(prover="A", providers=("N1",), recipient="B",
                             round=1, max_length=4)
        baseline = leakage.baseline_facts_provider(config, 2)
        assert ("exists-route-leq", 2) in baseline
        assert ("exists-route-leq", 4) in baseline  # implied
        assert ("no-route-leq", 1) not in baseline  # NOT known to Ni

    def test_silent_provider_baseline_empty(self):
        config = RoundConfig(prover="A", providers=("N1",), recipient="B",
                             round=1, max_length=4)
        assert leakage.baseline_facts_provider(config, None) == set()

    def test_recipient_baseline_from_promise(self):
        """Section 2.3: 'Y can infer that X had no route shorter than
        Z's' — the promise itself reveals the minimum."""
        config = RoundConfig(prover="A", providers=("N1",), recipient="B",
                             round=1, max_length=4)
        baseline = leakage.baseline_facts_recipient(config, 3)
        assert ("chosen-length", 3) in baseline
        assert ("exists-route-leq", 3) in baseline
        assert ("no-route-leq", 2) in baseline
        assert ("no-route-leq", 1) in baseline


scenario_routes = st.dictionaries(
    st.sampled_from(["N1", "N2", "N3"]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=MAX_LEN)),
    min_size=0, max_size=3,
)


class TestHonestProtocolLeaksNothing:
    @settings(max_examples=30, deadline=None)
    @given(scenario_routes)
    def test_zero_leakage_across_random_scenarios(self, keystore, lengths):
        spec = spec_for("N1", "N2", "N3")
        routes = {
            n: (route(n, l) if l is not None else None)
            for n, l in lengths.items()
        }
        for n in spec.providers:
            routes.setdefault(n, None)
        report = VerificationSession(keystore, spec).run(routes)
        assert report.confidentiality_ok

    def test_provider_learns_only_what_it_knew(self, keystore):
        routes = {"N1": route("N1", 2), "N2": route("N2", 5)}
        report = VerificationSession(keystore, spec_for("N1", "N2")).run(routes)
        # N2 (the loser) must not learn that a shorter route existed
        learned = leakage.facts_learned_by_provider(
            report.transcript.detail.provider_views["N2"]
        )
        assert ("exists-route-leq", 2) not in leakage._close_under_implication(
            learned, MAX_LEN
        ) - leakage._close_under_implication(
            {("exists-route-leq", 5)}, MAX_LEN
        )
        # and in particular N2 cannot tell whether N1 announced at all
        assert all(fact[0] != "no-route-leq" for fact in learned)

    def test_recipient_learns_exactly_the_promise_consequences(self, keystore):
        spec = spec_for("N1", "N2")
        routes = {"N1": route("N1", 2), "N2": route("N2", 5)}
        report = VerificationSession(keystore, spec).run(routes)
        learned = leakage.facts_learned_by_recipient(
            report.transcript.detail.recipient_view
        )
        baseline = leakage.baseline_facts_recipient(spec.round_config(1), 2)
        assert leakage.confidentiality_violations(learned, baseline,
                                                  MAX_LEN) == set()
        # B does NOT learn the losers' lengths: the fact "exists-route-leq-5"
        # is already implied by "exists-route-leq-2"
        assert ("chosen-length", 2) in learned
