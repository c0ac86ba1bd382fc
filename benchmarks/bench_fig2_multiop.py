"""FIG2 — Figure 2 / Section 3.5: the multi-operator route-flow graph.

"I will export some route via N2..Nk unless N1 provides a shorter route."
Runs the generalized protocol (vertex records, sparse Merkle tree, signed
root, navigation) over the two-operator graph — as a `PromiseSpec`
carrying the Figure 2 plan through the unified `VerificationSession` —
and measures:

* prover commit cost and recipient verification cost vs k;
* static promise checking (the graph provably computes the global
  shortest route);
* full collective verification: every party checks its own slice through
  one engine call.
"""

import pytest

from repro.promises.spec import ShortestRoute
from repro.pvr.engine import VerificationSession, derive_skeleton
from repro.pvr.navigation import Navigator, verify_as_output_recipient
from repro.rfg.builder import figure2_graph
from repro.rfg.static_check import implements
from repro.util.rng import DeterministicRandom

import workloads
from conftest import print_table, run_once

MAX_LEN = workloads.MAX_LEN

# spec construction lives in benchmarks/workloads.py
route = workloads.route
spec_for = workloads.figure2_spec


def routes_for(k, seed=0):
    rng = DeterministicRandom(seed).fork("fig2")
    return {
        f"N{i}": route(f"N{i}", rng.randint(1, MAX_LEN))
        for i in range(1, k + 1)
    }


def test_static_check_figure2(benchmark):
    """The Figure 2 graph provably exports the global shortest route."""
    graph = figure2_graph(["N1", "N2", "N3"])
    assert run_once(benchmark, lambda: implements(graph, ShortestRoute()))


def test_spec_resolves_to_graph_variant(benchmark):
    """A spec carrying a hand-built plan runs the generalized protocol,
    and the derived verification skeleton matches Figure 2."""
    spec = spec_for(3)

    def resolve():
        return spec.resolve_variant(), derive_skeleton(spec.plan, "ro")

    variant, skeleton = run_once(benchmark, resolve)
    assert variant == "graph"
    assert [(s.name, s.type_tag) for s in skeleton] == [
        ("unless-shorter", "shorter-of"),
        ("min", "min-path-length"),
    ]


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_prover_commit_cost(benchmark, bench_keystore, k):
    spec = spec_for(k)
    routes = routes_for(k)

    def commit_once():
        session = VerificationSession(bench_keystore, spec, round=10 + k)
        session.announce(routes)
        session.commit()
        return session

    session = benchmark(commit_once)
    views = session.disclose()
    assert views["B"].route is not None


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_recipient_verification_cost(benchmark, bench_keystore, k):
    """B's slice of the collective check alone: navigate from the signed
    root to its output and validate the export."""
    spec = spec_for(k)
    session = VerificationSession(bench_keystore, spec, round=50 + k)
    session.announce(routes_for(k))
    root = session.commit()
    attestation = session.disclose()["B"]
    skeleton = derive_skeleton(session.plan, "ro")

    def verify_once():
        navigator = Navigator(bench_keystore, "B", session.prover, root)
        return verify_as_output_recipient(
            navigator, session.config, "ro", attestation, skeleton,
            known_providers=spec.providers,
        )

    verdict = benchmark(verify_once)
    assert verdict.ok, verdict.violations


def test_full_figure2_collective_verification(benchmark, bench_keystore):
    """All parties verify through one engine call; table of the verdicts."""
    k = 6
    spec = spec_for(k)
    routes = routes_for(k)

    def experiment():
        session = VerificationSession(bench_keystore, spec, round=99)
        report = session.run(routes)
        assert report.ok(), report.verdicts
        rows = [("B", "structure+evidence+export",
                 "ok" if report.verdicts["B"].ok else "VIOLATION")]
        for party in spec.providers:
            rows.append((party, "receipt+counted-bit",
                         "ok" if report.verdicts[party].ok else "VIOLATION"))
        return rows

    rows = run_once(benchmark, experiment)
    print_table("FIG2 collective verification (k=6)",
                ["party", "checks", "verdict"], rows)


def test_merkle_tree_size_constant_per_query(benchmark, bench_keystore):
    """Navigation proof sizes grow with log(graph), not with k routes."""

    def experiment():
        sizes = []
        for k in (2, 8, 32):
            session = VerificationSession(
                bench_keystore, spec_for(k), round=200 + k
            )
            session.announce(routes_for(k))
            session.commit()
            response = session.prover.get_record("B", "ro")
            sizes.append((k, len(response.proof.siblings)))
        return sizes

    sizes = run_once(benchmark, experiment)
    print_table("FIG2 proof depth vs k", ["k", "proof siblings"], sizes)
    # depth is the prefix-free address length, constant in k for 'ro'
    assert sizes[0][1] == sizes[-1][1]
