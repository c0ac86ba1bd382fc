"""EX1 — Section 3.2: the existential-operator protocol and the
ring-signature link-state variant.

Measures the single-bit protocol round (through the unified engine) and
the RST ring signature costs as the ring grows.  Shape assertions: ring
signing is linear in ring size (one trapdoor application per member),
and any ring member's signature verifies identically (signer anonymity
at the interface).
"""

import pytest

from repro.pvr.engine import VerificationSession
from repro.pvr.existential import ring_announce, verify_ring_provenance

import workloads
from conftest import print_table, run_once

# workload definitions live in benchmarks/workloads.py
route = workloads.route
spec_for = workloads.existential_spec


def config_for(k, round=1):
    return spec_for(k).round_config(round)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_existential_round(benchmark, bench_keystore, k):
    spec = spec_for(k)
    routes = workloads.existential_routes(k)

    def round_once():
        session = VerificationSession(bench_keystore, spec, round=300 + k)
        return session.run(routes)

    report = benchmark(round_once)
    assert report.variant == "existential"
    assert all(v.ok for v in report.verdicts.values())


@pytest.mark.parametrize("ring_size", [2, 4, 8, 16])
def test_ring_signature_sign(benchmark, bench_keystore, ring_size):
    config = config_for(ring_size, round=400 + ring_size)

    def sign_once():
        return ring_announce(bench_keystore, config, "N1")

    signature = benchmark(sign_once)
    assert verify_ring_provenance(bench_keystore, config, signature)


@pytest.mark.parametrize("ring_size", [2, 4, 8, 16])
def test_ring_signature_verify(benchmark, bench_keystore, ring_size):
    config = config_for(ring_size, round=500 + ring_size)
    signature = ring_announce(bench_keystore, config, "N2")

    def verify_once():
        return verify_ring_provenance(bench_keystore, config, signature)

    assert benchmark(verify_once)


def test_ring_anonymity_table(benchmark, bench_keystore):
    """Every member produces interface-identical, verifying signatures."""
    k = 4
    config = config_for(k, round=600)

    def experiment():
        rows = []
        for signer in config.providers:
            sig = ring_announce(bench_keystore, config, signer)
            ok = verify_ring_provenance(bench_keystore, config, sig)
            rows.append((signer, len(sig.xs), "yes" if ok else "NO"))
            assert ok
        return rows

    rows = run_once(benchmark, experiment)
    print_table("EX1 ring-signature anonymity (k=4)",
                ["actual signer", "ring slots", "verifies"], rows)
    # all signatures have the same shape: nothing identifies the signer
    assert len({row[1] for row in rows}) == 1
