"""Microdrivers: one public function each, timed from outside.

Each driver calls its function in five batches of at least
``batch_seconds`` and reports the median batch's time per call — the
floor the workload-level numbers are compared with (one ``Monitor``
fresh round = ``pvr.round_ms.minimum`` + wire and store overhead, and
so on down to one modular exponentiation).
"""

from __future__ import annotations

import math
import shutil
import tempfile
from typing import Callable, Dict

import repro.cluster  # noqa: F401  (repro.journal imports only after it)
from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto import (
    BatchTree,
    KeyStore,
    commit,
    generate_keypair,
    hash_bytes,
    verify_opening,
)
from repro.journal import Journal
from repro.pvr import Judge, scenarios
from repro.util.encoding import canonical_encode
from repro.util.rng import DeterministicRandom

from metrics import PVR_VARIANTS, median
from spans import CLOCK

BATCHES = 5


def per_call(fn: Callable[[], object], batch_seconds: float) -> float:
    """Median over ``BATCHES`` batches of seconds per call of ``fn``."""
    calls = 1
    while True:  # size one batch; doubles as warm-up
        started = CLOCK()
        for _ in range(calls):
            fn()
        elapsed = CLOCK() - started
        if elapsed >= batch_seconds:
            break
        calls = max(
            calls + 1, math.ceil(calls * batch_seconds / elapsed * 1.1)
        )
    batches = []
    for _ in range(BATCHES):
        started = CLOCK()
        for _ in range(calls):
            fn()
        batches.append((CLOCK() - started) / calls)
    return median(batches)


def run_micro(key_bits: int, batch_seconds: float, out_dir: str) -> Dict:
    """Every microdriver metric, by name."""
    layer: Dict[str, float] = {}
    keystore = KeyStore(seed=2011, key_bits=key_bits)
    keystore.register("A")
    message = b"UPDATE 10.0.0.0/8 AS-path N2 T0 T1" * 2
    signature = keystore.sign("A", message)

    # crypto
    layer["crypto.rsa_sign_us"] = 1e6 * per_call(
        lambda: keystore.sign("A", message), batch_seconds
    )
    layer["crypto.rsa_verify_us"] = 1e6 * per_call(
        lambda: keystore.verify("A", message, signature), batch_seconds
    )
    layer["crypto.hash_us"] = 1e6 * per_call(
        lambda: hash_bytes("bench", message), batch_seconds
    )
    leaves = [message + str(i).encode() for i in range(64)]
    layer["crypto.merkle_batch_us_per_leaf"] = 1e6 / len(leaves) * per_call(
        lambda: keystore.sign("A", BatchTree(leaves).root), batch_seconds
    )
    bits = (1, 1, 0, 0, 0, 0, 0, 0)
    layer["crypto.commit_us"] = 1e6 * per_call(
        lambda: verify_opening(*commit("bench", bits)), batch_seconds
    )
    # key search time depends on the random stream, so every batch
    # draws the same three streams
    seed = DeterministicRandom(2011)

    def keygen() -> None:
        for index in range(3):
            generate_keypair(key_bits, seed.fork(f"keygen:{index}").bytes)

    layer["crypto.keygen_ms"] = 1e3 / 3 * per_call(keygen, batch_seconds)

    # util: what SignedAnnouncement.canonical() encodes for a 3-hop route
    prefix = Prefix.parse("203.0.113.0/24")
    route = Route(
        prefix=prefix, as_path=ASPath(("N1", "T0", "T1")), neighbor="N1"
    )
    payload = ("signed-announcement", route, "N1", "A", 7, signature)
    encoded = len(canonical_encode(payload))
    encode_s = per_call(lambda: canonical_encode(payload), batch_seconds)
    layer["util.encode_us"] = 1e6 * encode_s
    layer["util.encode_mb_per_s"] = encoded / encode_s / 1e6

    # pvr: one whole round per protocol variant, and one adjudication
    for variant, scenario in PVR_VARIANTS.items():
        report = scenarios.run(scenario, keystore)
        if not report.ok():
            raise AssertionError(f"honest scenario {scenario} flagged")
        layer[f"pvr.round_signatures.{variant}"] = report.crypto.signatures
        layer[f"pvr.round_ms.{variant}"] = 1e3 * per_call(
            lambda: scenarios.run(scenario, keystore), batch_seconds
        )
    cheat = scenarios.run("fig1-longer-route", keystore, judge=False)
    judge = Judge(keystore)
    if not cheat.adjudicate(judge).guilty():
        raise AssertionError("judge did not uphold fig1-longer-route")
    layer["pvr.judge_ms"] = 1e3 * per_call(
        lambda: cheat.adjudicate(judge), batch_seconds
    )

    # journal
    directory = tempfile.mkdtemp(prefix="micro-journal-", dir=out_dir)
    try:
        record = {"e": "x" * 4000}
        with Journal(directory) as journal:
            layer["journal.append_us"] = 1e6 * per_call(
                lambda: journal.append("event", record), batch_seconds
            )

            def sync() -> None:
                journal.append("event", record)
                journal.sync()

            layer["journal.sync_ms"] = 1e3 * per_call(sync, batch_seconds)
            snapshot = "s" * (256 * 1024)
            layer["journal.checkpoint_ms"] = 1e3 * per_call(
                lambda: journal.checkpoint(snapshot), batch_seconds
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return layer

