"""ABL — ablations of the design decisions called out in DESIGN.md.

D1  commitment nonce (paper footnote 2): drop the nonce and the
    brute-force attack recovers every committed bit.
D2  bit-vector commitments: the monotone vector admits length
    comparison without value disclosure; a single-bit commitment cannot
    express promise 2's condition 3.
D3  sparse MHT vs flat list commitment: the flat list leaks the vertex
    count; the blinded sparse tree does not.
D4  gossip: disabling it lets a split-view (equivocation) attack pass
    the cross-check that would otherwise catch it.
D5  batch signing: the prover signs every message of its round as a
    salted leaf under one Merkle root signature, k + 1 signatures a
    round instead of 3k + 2 + L (crypto microbenchmarks in
    bench_overhead_sec38).
"""


from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.commitment import (
    brute_force_bit,
    commit,
    insecure_commit_no_nonce,
)
from repro.crypto.hashing import hash_many
from repro.crypto.merkle import SparseMerkleTree
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import EquivocatingProver
from repro.pvr.engine import VerificationSession
from repro.pvr.session import PromiseSpec
from repro.util.bitstrings import encode_prefix_free
from repro.util.rng import DeterministicRandom

from conftest import print_table, run_once

PFX = Prefix.parse("10.0.0.0/8")


def route(neighbor, length):
    return Route(prefix=PFX,
                 as_path=ASPath(tuple(f"T{i}" for i in range(length))),
                 neighbor=neighbor)


class TestD1CommitmentNonce:
    def test_attack_rate_table(self, benchmark):
        rng = DeterministicRandom(1)
        trials = 64

        def experiment():
            without = sum(
                1
                for i in range(trials)
                if brute_force_bit(insecure_commit_no_nonce("b", i % 2))
                is not None
            )
            with_nonce = sum(
                1
                for i in range(trials)
                if brute_force_bit(commit("b", i % 2, rng.bytes)[0])
                is not None
            )
            return without, with_nonce

        broken_without, broken_with = run_once(benchmark, experiment)
        print_table("D1: footnote-2 brute-force attack",
                    ["variant", "bits recovered", "of"],
                    [("no nonce", broken_without, trials),
                     ("with nonce", broken_with, trials)])
        assert broken_without == trials
        assert broken_with == 0

    def test_attack_cost(self, benchmark):
        target = insecure_commit_no_nonce("b", 1)
        assert benchmark(brute_force_bit, target) == 1


class TestD2BitVector:
    def test_vector_expresses_length_comparison(self, benchmark, bench_keystore):
        """With the k-bit vector, B learns the minimum length and each Ni
        checks its own bit — promise 2 condition 3 is verifiable.  A
        single existence bit cannot distinguish 'shortest' from 'any'."""
        from repro.pvr.commitments import compute_length_bits

        lengths = [4, 2, 6]
        bits = run_once(benchmark, lambda: compute_length_bits(lengths, 8))
        # the minimum is recoverable from the vector alone...
        assert bits.index(1) + 1 == min(lengths)
        # ...but a single existence bit collapses all length information
        exist_bit = 1 if lengths else 0
        assert exist_bit == 1  # indistinguishable across all inputs


class TestD3StructureHiding:
    def test_flat_commitment_leaks_count(self, benchmark):
        """A flat hash-list commitment reveals how many vertices exist;
        the blinded sparse tree yields constant-shape disclosures."""
        run_once(benchmark, lambda: None)

        def flat_commitment(payloads):
            return hash_many("flat", *payloads), len(payloads)

        _, leaked_small = flat_commitment([b"a", b"b"])
        _, leaked_large = flat_commitment([b"a", b"b", b"c", b"d"])
        assert leaked_small != leaked_large  # the count is on the wire

        rng = DeterministicRandom(3)
        small = SparseMerkleTree(
            {encode_prefix_free(b"var(x)"): b"a"}, rng.bytes
        )
        large = SparseMerkleTree(
            {
                encode_prefix_free(b"var(x)"): b"a",
                encode_prefix_free(b"var(hidden1)"): b"b",
                encode_prefix_free(b"var(hidden2)"): b"c",
            },
            rng.bytes,
        )
        proof_small = small.prove(encode_prefix_free(b"var(x)"))
        proof_large = large.prove(encode_prefix_free(b"var(x)"))
        # same address -> same proof shape, regardless of what else exists
        assert len(proof_small.siblings) == len(proof_large.siblings)
        print_table("D3: disclosure shape vs hidden vertices",
                    ["hidden vertices", "proof siblings"],
                    [(0, len(proof_small.siblings)),
                     (2, len(proof_large.siblings))])


class TestD4Gossip:
    def _scenario(self, keystore, gossip):
        spec = PromiseSpec(promise=ShortestRoute(), prover="A",
                           providers=("N1", "N2", "N3"), recipients=("B",),
                           max_length=8)
        routes = {"N1": route("N1", 4), "N2": route("N2", 2),
                  "N3": route("N3", 6)}
        session = VerificationSession(
            keystore, spec, round=1,
            prover=EquivocatingProver(keystore), gossip=gossip,
        )
        return session.run(routes)

    def test_gossip_catches_split_view(self, benchmark, bench_keystore):
        with_gossip = run_once(
            benchmark, lambda: self._scenario(bench_keystore, gossip=True)
        )
        without = self._scenario(bench_keystore, gossip=False)
        print_table("D4: equivocation detection",
                    ["gossip", "equivocation records"],
                    [("on", len(with_gossip.equivocations)),
                     ("off", len(without.equivocations))])
        assert with_gossip.equivocations
        assert not without.equivocations

    def test_gossip_round_cost(self, benchmark, bench_keystore):
        result = benchmark.pedantic(
            self._scenario, args=(bench_keystore, True), rounds=3, iterations=1
        )
        assert result.equivocations


class TestD5BatchSigning:
    def test_signature_reduction_table(self, benchmark, bench_keystore):
        """One batch-root signature replaces the prover's 2k + 2 + L
        per-message ones — batching is an engine option, not a separate
        code path."""
        routes = {"N1": route("N1", 4), "N2": route("N2", 2),
                  "N3": route("N3", 6)}
        spec = PromiseSpec(promise=ShortestRoute(), prover="A",
                           providers=("N1", "N2", "N3"), recipients=("B",),
                           max_length=16)

        def experiment():
            rows = []
            for label, batching, round_no in (
                ("per-disclosure", False, 41),
                ("batched", True, 42),
            ):
                session = VerificationSession(
                    bench_keystore, spec, round=round_no, batching=batching
                )
                report = session.run(routes)
                assert not report.violation_found()
                rows.append((label, report.crypto.signatures))
            return rows

        rows = run_once(benchmark, experiment)
        print_table("D5: signatures per round, k=3, L=16",
                    ["prover", "signatures"], rows)
        assert rows[1][1] < rows[0][1]
