"""MHT — Section 3.6: commitment and selective disclosure via the sparse
Merkle tree.

Measures construction, proof generation and verification as the
route-flow graph grows, and checks the structure-hiding property's cost
consequence: proof size grows with the address length (O(name length)),
not with the number of other vertices.
"""

import pytest

from repro.crypto.merkle import SparseMerkleTree
from repro.util.bitstrings import encode_prefix_free
from repro.util.rng import DeterministicRandom

from conftest import print_table, run_once


def build_leaves(count):
    return {
        encode_prefix_free(f"var(v{i})".encode()): f"payload-{i}".encode()
        for i in range(count)
    }


@pytest.mark.parametrize("vertices", [10, 100, 1000])
def test_tree_construction(benchmark, vertices):
    leaves = build_leaves(vertices)
    rng = DeterministicRandom(vertices)

    def build():
        return SparseMerkleTree(leaves, rng.bytes)

    tree = benchmark(build)
    assert len(tree.root) == 32


@pytest.mark.parametrize("vertices", [10, 100, 1000])
def test_proof_generation(benchmark, vertices):
    leaves = build_leaves(vertices)
    tree = SparseMerkleTree(leaves, DeterministicRandom(vertices).bytes)
    target = encode_prefix_free(b"var(v0)")

    proof = benchmark(tree.prove, target)
    assert proof.verify(tree.root)


@pytest.mark.parametrize("vertices", [10, 100, 1000])
def test_proof_verification(benchmark, vertices):
    leaves = build_leaves(vertices)
    tree = SparseMerkleTree(leaves, DeterministicRandom(vertices).bytes)
    proof = tree.prove(encode_prefix_free(b"var(v0)"))

    assert benchmark(proof.verify, tree.root)


def test_proof_size_scaling_table(benchmark):
    """Proof size is set by the vertex's address length (its name), not
    by how many other vertices the graph contains."""

    def experiment():
        rows = []
        for vertices in (10, 100, 1000, 5000):
            leaves = build_leaves(vertices)
            tree = SparseMerkleTree(leaves, DeterministicRandom(7).bytes)
            proof = tree.prove(encode_prefix_free(b"var(v0)"))
            depth = len(proof.siblings)
            rows.append((vertices, depth, depth * 32))
        return rows

    rows = run_once(benchmark, experiment)
    print_table("MHT proof size vs graph size",
                ["vertices", "siblings", "proof bytes"], rows)
    depths = [row[1] for row in rows]
    # address of var(v0) is fixed; depth stays flat as the graph grows
    assert max(depths) == min(depths)


def test_all_proofs_verify_at_scale(benchmark):
    leaves = build_leaves(500)
    tree = SparseMerkleTree(leaves, DeterministicRandom(9).bytes)

    def experiment():
        for address in list(leaves)[::50]:
            assert tree.prove(address).verify(tree.root)
        return True

    assert run_once(benchmark, experiment)
