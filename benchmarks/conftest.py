"""Shared benchmark fixtures.

Benchmarks use RSA-1024 (the paper's Section 3.8 reference point) and a
deterministic keystore, so runs are comparable across machines up to a
constant factor.

Table rendering lives in :mod:`repro.util.tables` (shared with the
serve / cluster / audit / ledger CLIs); this conftest binds it to the
session's ``benchmark_tables.txt`` output file.
"""

import pytest

from repro.crypto.keystore import KeyStore
from repro.util import tables

BENCH_KEY_BITS = 1024


@pytest.fixture(scope="session")
def bench_keystore():
    store = KeyStore(seed=2011, key_bits=BENCH_KEY_BITS)
    # pre-register the parties every benchmark uses so keygen cost stays
    # out of the timed sections
    store.register("A")
    store.register("B")
    for i in range(1, 65):
        store.register(f"N{i}")
    return store


TABLES_FILE = "benchmark_tables.txt"


@pytest.fixture(scope="session", autouse=True)
def _fresh_tables_file():
    """Start each benchmark session with an empty tables file."""
    open(TABLES_FILE, "w", encoding="utf-8").close()
    yield


def print_table(title, headers, rows):
    """Render a paper-style results table.

    Tables go both to stdout (visible with ``-s``) and to
    ``benchmark_tables.txt`` in the working directory, so the series
    survive pytest's output capture during ``--benchmark-only`` runs.
    """
    return tables.print_table(title, headers, rows, path=TABLES_FILE)


def run_once(benchmark, fn):
    """Run a table/shape experiment exactly once under the benchmark
    fixture, so it executes (and is timed) in --benchmark-only runs."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
