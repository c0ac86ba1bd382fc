"""Tests for the per-AS key directory."""

import pickle
import sys
import threading

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import numbers
from repro.crypto.keystore import KeyStore, UnknownKeyError
from repro.util.rng import DeterministicRandom


@pytest.fixture
def store():
    return KeyStore(seed=7, key_bits=512)


class TestKeyStore:
    def test_register_returns_public_key(self, store):
        pub = store.register("AS1")
        assert pub.bits == 512

    def test_register_is_idempotent(self, store):
        assert store.register("AS1").n == store.register("AS1").n

    def test_distinct_ases_distinct_keys(self, store):
        assert store.register("AS1").n != store.register("AS2").n

    def test_deterministic_across_instances(self):
        a = KeyStore(seed=7, key_bits=512).register("AS1")
        b = KeyStore(seed=7, key_bits=512).register("AS1")
        assert a.n == b.n

    def test_registration_order_irrelevant(self):
        a = KeyStore(seed=7, key_bits=512)
        a.register("AS1")
        a.register("AS2")
        b = KeyStore(seed=7, key_bits=512)
        b.register("AS2")
        b.register("AS1")
        assert a.public_key("AS1").n == b.public_key("AS1").n

    def test_unknown_key_raises(self, store):
        with pytest.raises(UnknownKeyError):
            store.public_key("AS404")
        with pytest.raises(UnknownKeyError):
            store.private_key("AS404")

    def test_contains_and_known(self, store):
        store.register_all(["AS1", "AS2"])
        assert "AS1" in store
        assert "AS404" not in store
        assert store.known() == ("AS1", "AS2")

    def test_sign_and_verify(self, store):
        store.register("AS1")
        sig = store.sign("AS1", b"announce")
        assert store.verify("AS1", b"announce", sig)
        assert not store.verify("AS1", b"other", sig)

    def test_verify_unknown_as_is_false(self, store):
        store.register("AS1")
        sig = store.sign("AS1", b"announce")
        assert not store.verify("AS404", b"announce", sig)

    def test_cross_as_signature_rejected(self, store):
        store.register_all(["AS1", "AS2"])
        sig = store.sign("AS1", b"announce")
        assert not store.verify("AS2", b"announce", sig)


class TestWorkerSafety:
    """The contract the shard batch runner and the serve/cluster parity
    samplers rely on when they hand a keystore to a worker."""

    def test_worker_view_shares_keys_but_counts_from_zero(self, store):
        store.register("AS1")
        store.sign("AS1", b"before")
        view = store.worker_view()
        assert (view.sign_count, view.verify_count) == (0, 0)
        sig = view.sign("AS1", b"announce")
        assert view.verify("AS1", b"announce", sig)
        assert sig == store.sign("AS1", b"announce")
        assert (view.sign_count, view.verify_count) == (1, 1)
        # a key the view generates lazily lands in the shared table
        view.register("AS2")
        assert "AS2" in store

    def test_add_counts_folds_a_view_back(self, store):
        store.register("AS1")
        view = store.worker_view()
        sig = view.sign("AS1", b"announce")
        view.verify("AS1", b"announce", sig)
        view.verify("AS1", b"other", sig)
        assert (store.sign_count, store.verify_count) == (0, 0)
        store.add_counts(view.sign_count, view.verify_count)
        assert (store.sign_count, store.verify_count) == (1, 2)

    def test_pickled_store_signs_byte_identically(self, store):
        store.register("AS1")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.known() == store.known()
        assert clone.sign("AS1", b"announce") == store.sign(
            "AS1", b"announce"
        )

    def test_pickled_store_lazily_generates_the_parents_key(self, store):
        clone = pickle.loads(pickle.dumps(store))
        assert "AS9" not in clone
        assert clone.register("AS9").n == store.register("AS9").n


class TestKeyTable:
    """How keys move without being made again: a store's table is
    adopted by a worker or a recovery, and ``generated`` counts only
    what a store made itself."""

    def test_generated_counts_keys_made_not_lookups(self, store):
        store.register_all(["AS1", "AS2", "AS1"])
        assert store.generated == 2

    def test_adopted_keys_sign_identically_and_count_nothing(self, store):
        store.register_all(["AS1", "AS2"])
        other = KeyStore(seed=7, key_bits=512)
        other.adopt(store.table())
        assert other.known() == ("AS1", "AS2")
        assert other.generated == 0
        assert other.sign("AS2", b"m") == store.sign("AS2", b"m")

    def test_table_from_an_entry_is_what_a_holder_lacks(self, store):
        store.register("AS1")
        held = len(store.table())
        store.register_all(["AS3", "AS2"])
        assert [asn for asn, _ in store.table(held)] == ["AS3", "AS2"]

    def test_the_table_only_grows_while_threads_register(self):
        """A service registers a policy's keys on its event-loop thread
        while the dispatcher thread deals the table to workers: every
        table read must extend the one before, and no key be lost."""
        store = KeyStore(seed=7, key_bits=256)
        names = [[f"AS{t}-{i}" for i in range(3)] for t in range(4)]
        broken, done = [], threading.Event()

        def read():
            seen = ()
            try:
                while not done.is_set():
                    table = store.table()
                    if table[:len(seen)] != seen:
                        broken.append(table)
                    seen = table
            except Exception as exc:  # a thread's error is otherwise lost
                broken.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=read)
            writers = [
                threading.Thread(target=store.register_all, args=(batch,))
                for batch in names
            ]
            reader.start()
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(writer.is_alive() for writer in writers)
        assert broken == []
        assert len(store.table()) == store.generated == 12

    def test_a_key_two_threads_race_to_make_counts_once(
        self, store, monkeypatch
    ):
        """Two threads that register the same AS both get past the
        not-held test and both generate; only the keypair installed
        counts as generated."""
        from repro.crypto import rsa

        generate = rsa.generate_keypair
        both_inside = threading.Barrier(2, timeout=30)

        def generate_together(*args, **kwargs):
            keypair = generate(*args, **kwargs)
            both_inside.wait()
            return keypair

        monkeypatch.setattr(rsa, "generate_keypair", generate_together)
        threads = [
            threading.Thread(target=store.register, args=("AS1",))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(store.table()) == store.generated == 1

    def test_adopting_keeps_a_key_already_held(self, store):
        mine = store.register("AS1")
        stranger = KeyStore(seed=8, key_bits=512)
        stranger.register("AS1")
        store.adopt(stranger.table())
        assert store.public_key("AS1") == mine


def head_generate_prime(bits, random_bytes):
    """``generate_prime`` as it was before the window sieve: trial
    division to 199 and Miller-Rabin, candidate by candidate."""
    nbytes = (bits + 7) // 8
    while True:
        candidate = int.from_bytes(random_bytes(nbytes), "big")
        candidate &= (1 << bits) - 1
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        for offset in range(0, 512, 2):
            n = candidate + offset
            if n.bit_length() != bits:
                break
            if numbers.is_probable_prime(n, random_bytes):
                return n


#: fingerprints of the benchmark's keys (seed 2011, RSA-1024), recorded
#: before the window sieve: a key is a function of (seed, AS, bits) only
FINGERPRINTS_1024 = {
    "A": "5a720c41e7e38739a2c77ffd444a6ae54c8664530e777ccfa1393446ab1e25d2",
    "B": "859dbabd0cc44b922354b615cc18231b8d38f633f29ab81b9242b3b12262b4f6",
    "N1": "807e45c0d6dac8ee8ad795dada51eccba257ced3ee723d86e8daa460fa6d5ad6",
    "N2": "6c91b22250e4e4b8fded804aac86e499c985f544bdfd17c69ef911bb00d241f3",
    "N3": "0db8b750f9697cc612890b8306664b235968118525e8ba76cbfdc12b94f9774e",
}


class TestTheSieveChangesNoKey:
    """The sieve strikes only candidates the old loop rejected without
    drawing randomness, so every prime — and every key — is the one the
    same seed gave before."""

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.integers(min_value=16, max_value=600),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_primes_match_the_unsieved_loop(self, bits, seed):
        sieved = DeterministicRandom(seed).fork("prime")
        unsieved = DeterministicRandom(seed).fork("prime")
        assert numbers.generate_prime(bits, sieved.bytes) == (
            head_generate_prime(bits, unsieved.bytes)
        )
        # and both consumed the stream to the same point
        assert sieved.bytes(16) == unsieved.bytes(16)

    def test_the_benchmark_keys_are_unchanged(self):
        store = KeyStore(seed=2011, key_bits=1024)
        assert {
            asn: store.register(asn).fingerprint().hex()
            for asn in FINGERPRINTS_1024
        } == FINGERPRINTS_1024
