"""Tests for the per-AS key directory."""

import pickle

import pytest

from repro.crypto.keystore import KeyStore, UnknownKeyError


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
