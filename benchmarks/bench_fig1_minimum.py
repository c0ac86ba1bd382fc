"""FIG1 — Figure 1 / Section 3.3: the minimum-operator protocol.

Reproduces the paper's central scenario quantitatively, driven entirely
through the unified engine (`PromiseSpec` + `VerificationSession`):

* full-round latency (prove + verify everywhere + gossip) as the number
  of providers k grows;
* the detection matrix: every adversary class detected by the predicted
  party, with judge-valid evidence;
* the four PVR properties holding across randomized scenarios.

Paper-shape assertions: 100% detection for every implemented adversary
class, zero false accusations on honest runs, zero confidentiality
violations, and per-round cost dominated by signatures (linear in k).
"""

import pytest

from repro.pvr.adversary import (
    BadOpeningProver,
    EquivocatingProver,
    LongerRouteProver,
    LyingSuppressor,
    NonMonotoneProver,
    SuppressingProver,
    UnderstatingProver,
)
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge

import workloads
from conftest import print_table, run_once

MAX_LEN = workloads.MAX_LEN

# the workload definitions live in benchmarks/workloads.py
make_routes = workloads.fig1_routes
spec_for = workloads.minimum_spec


@pytest.mark.parametrize("k", [2, 4, 8, 16, 32])
def test_round_latency_vs_providers(benchmark, bench_keystore, k):
    """Full verification round wall time as the neighbor count grows."""
    spec = spec_for(k)
    routes = make_routes(k)

    def round_once():
        session = VerificationSession(bench_keystore, spec, round=1)
        return session.run(routes)

    report = benchmark(round_once)
    assert report.accuracy_ok


def test_detection_matrix(benchmark, bench_keystore):
    """The executable version of the adversary table."""
    adversaries = [
        ("honest", None, ()),
        ("longer-route", LongerRouteProver(bench_keystore), ("B",)),
        ("understating", UnderstatingProver(bench_keystore), ("N",)),
        ("suppressing", SuppressingProver(bench_keystore), ("B",)),
        ("lying-suppressor", LyingSuppressor(bench_keystore), ("N",)),
        ("non-monotone", NonMonotoneProver(bench_keystore), ("B",)),
        ("equivocating", EquivocatingProver(bench_keystore), ("gossip",)),
        ("bad-opening", BadOpeningProver(bench_keystore), ("N",)),
    ]
    judge = Judge(bench_keystore)
    spec = spec_for(8)

    def experiment():
        rows = []
        for index, (name, prover, expected) in enumerate(adversaries):
            routes = make_routes(8, seed=3)
            session = VerificationSession(
                bench_keystore, spec, round=index + 1, prover=prover
            )
            report = session.run(routes, judge=judge)
            deviated = prover is not None
            assert report.detection_ok(deviated), name
            assert report.adjudication.evidence_ok(), name
            detectors = list(report.detecting_parties())
            if report.equivocations:
                detectors.append("gossip")
            for expectation in expected:
                if expectation == "N":
                    assert any(d.startswith("N") for d in detectors), name
                else:
                    assert expectation in detectors, name
            rows.append((name, "yes" if deviated else "no",
                         ",".join(detectors) or "-",
                         len(report.all_evidence())))
        return rows

    rows = run_once(benchmark, experiment)
    print_table("FIG1 detection matrix (k=8)",
                ["adversary", "deviated", "detected by", "evidence items"],
                rows)


def test_properties_across_random_scenarios(benchmark, bench_keystore):
    """Detection/Accuracy/Confidentiality over randomized inputs."""
    judge = Judge(bench_keystore)

    def experiment():
        checked = 0
        for seed in range(15):
            k = 2 + seed % 5
            routes = make_routes(k, seed=seed)
            session = VerificationSession(
                bench_keystore, spec_for(k), round=100 + seed
            )
            report = session.run(routes, judge=judge)
            assert report.accuracy_ok
            assert report.confidentiality_ok
            assert report.adjudication.evidence_ok()
            checked += 1
        return checked

    assert run_once(benchmark, experiment) == 15


def test_signature_cost_dominates(benchmark, bench_keystore):
    """Section 3.8's claim: the expensive part is the signatures."""
    import time

    spec = spec_for(8)
    routes = make_routes(8, seed=1)
    started = time.perf_counter()

    def round_once():
        session = VerificationSession(bench_keystore, spec, round=777)
        return session.run(routes)

    report = run_once(benchmark, round_once)
    elapsed = time.perf_counter() - started
    signatures = report.crypto.signatures
    assert report.accuracy_ok
    # measure one signature on this machine
    t0 = time.perf_counter()
    bench_keystore.sign("A", b"probe")
    sig_time = time.perf_counter() - t0
    rows = [(8, signatures, f"{elapsed*1000:.1f}",
             f"{signatures * sig_time * 1000:.1f}",
             f"{100 * signatures * sig_time / elapsed:.0f}%")]
    print_table("FIG1 cost decomposition (k=8)",
                ["k", "signatures", "round ms", "sig-only ms", "sig share"],
                rows)
    # signatures should account for a large share of the round
    assert signatures * sig_time / elapsed > 0.3


def test_batching_signs_one_root(benchmark, bench_keystore):
    """The engine's batching option (Section 3.8) against the default
    prover, measured via the session's own crypto counters: the batched
    prover signs its 2k + 2 + L round messages as leaves under one root,
    so the round signs k + 1 times instead of 3k + 2 + L."""
    spec = spec_for(6)
    routes = make_routes(6, seed=4)

    def experiment():
        rows = []
        for label, batching, round_no in (("per-disclosure", False, 888),
                                          ("batched", True, 889)):
            session = VerificationSession(
                bench_keystore, spec, round=round_no, batching=batching
            )
            report = session.run(routes)
            assert report.accuracy_ok, label
            rows.append((label, report.crypto.signatures))
        return rows

    rows = run_once(benchmark, experiment)
    print_table("FIG1 batching option (k=6, L=12)",
                ["prover", "signatures"], rows)
    assert rows == [("per-disclosure", 3 * 6 + 2 + 12), ("batched", 6 + 1)]
