"""OVH — Section 3.8: overhead of the cryptographic building blocks.

The paper's quantitative claims:

* "The most expensive operations we have used are a cryptographic
  hash-function (such as SHA-256), which are relatively cheap, and a
  public-key signature scheme (such as RSA)."
* "A RSA-1024 signature takes about two milliseconds on current
  hardware."
* "it seems feasible to sign messages in batches, perhaps using a small
  MHT to reveal batched routes individually."

Shape assertions: sign ≫ hash (orders of magnitude), verify ≪ sign (small
public exponent), and MHT batching amortizes the signature to ~1/m per
update while per-update proof cost stays logarithmic.
"""

import time

import pytest

from repro.crypto import rsa
from repro.crypto.commitment import commit, verify_opening
from repro.crypto.hashing import hash_bytes
from repro.crypto.merkle import BatchTree
from repro.util.rng import DeterministicRandom

from conftest import print_table, run_once

MESSAGE = b"UPDATE 10.0.0.0/8 AS-path N2 T0 T1" * 2


@pytest.fixture(scope="module")
def keypair(bench_keystore):
    return bench_keystore.private_key("A")


def test_rsa_sign(benchmark, keypair):
    signature = benchmark(rsa.sign, keypair, MESSAGE)
    assert rsa.verify(keypair.public, MESSAGE, signature)


def test_rsa_verify(benchmark, keypair):
    signature = rsa.sign(keypair, MESSAGE)
    assert benchmark(rsa.verify, keypair.public, MESSAGE, signature)


def test_sha256(benchmark):
    digest = benchmark(hash_bytes, "bench", MESSAGE)
    assert len(digest) == 32


def test_commitment(benchmark):
    rng = DeterministicRandom(1)
    c, o = benchmark(commit, "bit", 1, rng.bytes)
    assert verify_opening(c, o)


def test_paper_shape_sign_vs_hash(benchmark, keypair):
    """Signatures are the dominant cost; hashing is noise (Section 3.8)."""

    def measure():
        t0 = time.perf_counter()
        for _ in range(20):
            rsa.sign(keypair, MESSAGE)
        sign = (time.perf_counter() - t0) / 20
        t0 = time.perf_counter()
        for _ in range(5000):
            hash_bytes("bench", MESSAGE)
        return sign, (time.perf_counter() - t0) / 5000

    sign_time, hash_time = run_once(benchmark, measure)
    ratio = sign_time / hash_time
    print_table("OVH sign vs hash (RSA-1024 / SHA-256)",
                ["op", "time"],
                [("rsa-1024 sign", f"{sign_time*1000:.3f} ms"),
                 ("sha-256 hash", f"{hash_time*1e6:.2f} us"),
                 ("ratio", f"{ratio:.0f}x")])
    assert ratio > 100, "signature must dominate hashing by orders of magnitude"
    # the paper's absolute claim, with generous head-room for the host
    assert sign_time < 0.05, "RSA-1024 signing should be single-digit ms"


@pytest.mark.parametrize("burst", [1, 4, 16, 64, 256])
def test_batch_signing(benchmark, keypair, burst):
    """Section 3.8's burst batching: one signature over a BatchTree root."""
    updates = [MESSAGE + str(i).encode() for i in range(burst)]

    def batch_sign():
        tree = BatchTree(updates)
        signature = rsa.sign(keypair, tree.root)
        return tree, signature

    tree, signature = benchmark(batch_sign)
    assert rsa.verify(keypair.public, tree.root, signature)
    # each update individually revealable
    proof = tree.prove(burst - 1)
    assert proof.verify(tree.root)


def test_batching_amortization_table(benchmark, keypair):
    """Per-update signing cost: individual vs MHT-batched."""

    def experiment():
        rows = []
        t0 = time.perf_counter()
        for _ in range(10):
            rsa.sign(keypair, MESSAGE)
        individual = (time.perf_counter() - t0) / 10
        for burst in (1, 4, 16, 64, 256):
            updates = [MESSAGE + str(i).encode() for i in range(burst)]
            t0 = time.perf_counter()
            repeats = 5
            for _ in range(repeats):
                tree = BatchTree(updates)
                rsa.sign(keypair, tree.root)
            per_update = (time.perf_counter() - t0) / repeats / burst
            rows.append((burst, f"{individual*1000:.3f}",
                         f"{per_update*1000:.3f}",
                         f"{individual/per_update:.1f}x"))
        return rows, individual

    rows, individual = run_once(benchmark, experiment)
    print_table("OVH batch amortization (per-update ms)",
                ["burst", "individual", "batched", "speedup"], rows)
    # by 64-update bursts the amortized cost must be well under individual
    updates = [MESSAGE + str(i).encode() for i in range(64)]
    t0 = time.perf_counter()
    for _ in range(5):
        tree = BatchTree(updates)
        rsa.sign(keypair, tree.root)
    per_update = (time.perf_counter() - t0) / 5 / 64
    assert per_update < individual / 4


def test_batch_proof_depth_logarithmic(benchmark):
    def experiment():
        rows = []
        for burst in (1, 16, 256):
            tree = BatchTree([bytes([i % 256]) for i in range(burst)])
            rows.append((burst, len(tree.prove(0).siblings)))
        return rows

    rows = run_once(benchmark, experiment)
    print_table("OVH batch proof depth", ["burst", "siblings"], rows)
    assert rows[-1][1] <= 8  # log2(256)
