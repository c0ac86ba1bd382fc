"""The registered experiment catalogue.

Every experiment the repo measures, as named registry entries with full
and ``--quick`` parameter profiles:

* the eight ``benchmarks/bench_*.py`` series (Figure 1, the detection
  matrix, Section 3.2, Figure 2, the sparse MHT, Section 3.8's crypto
  primitives and batching, the BGP-scale sweep, the strawman gap);
* the ``examples/internet_scale.py`` audit sweep;
* the continuous-audit churn experiments (``audit-churn``,
  ``audit-churn-steady``): a :class:`repro.audit.monitor.Monitor` over
  the registered churn scenarios, measuring epochs, incremental
  commitment reuse and the evidence trail.

Metric convention (enforced by the determinism test): wall-clock numbers
live under ``metrics["timing"]``; everything else must be reproducible
for fixed parameters.
"""

from __future__ import annotations

import time

from repro.bench import workloads
from repro.bench.registry import ExperimentContext, register
from repro.pvr import scenarios
from repro.pvr.engine import VerificationSession
from repro.pvr.judge import Judge

__all__ = ["run_internet_scale_audit"]


def _run_session(ctx, spec, routes, *, round: int = 1, judge=None, **options):
    keystore = ctx.keystore()
    for party in spec.parties:
        keystore.register(party)
    session = VerificationSession(keystore, spec, round=round, **options)
    return session.run(routes, judge=judge)


@register(
    "fig1-minimum-round",
    "Figure 1 / Section 3.3: one honest minimum-protocol round",
    params={"k": 16, "key_bits": 1024, "max_length": workloads.MAX_LEN},
    quick={"k": 4, "key_bits": 512},
    tags=("fig1", "engine"),
)
def _fig1_minimum(ctx: ExperimentContext):
    k = int(ctx.params["k"])
    max_length = int(ctx.params["max_length"])
    spec = workloads.minimum_spec(k, max_length)
    routes = workloads.fig1_routes(k, max_length=max_length)
    started = time.perf_counter()
    report = _run_session(ctx, spec, routes)
    elapsed = time.perf_counter() - started
    assert report.accuracy_ok
    ctx.table(
        "FIG1 round cost",
        ["k", "signatures", "verifications", "round ms"],
        [(k, report.crypto.signatures, report.crypto.verifications,
          f"{elapsed * 1000:.1f}")],
    )
    return {
        "k": k,
        "signatures": report.crypto.signatures,
        "verifications": report.crypto.verifications,
        "accuracy_ok": report.accuracy_ok,
        "timing": {"round_seconds": elapsed},
    }


@register(
    "fig1-detection-matrix",
    "Every adversary class detected by the predicted party, with "
    "judge-valid evidence",
    params={"k": 8, "key_bits": 1024, "seed": 3},
    quick={"key_bits": 512},
    tags=("fig1", "adversary"),
)
def _detection_matrix(ctx: ExperimentContext):
    from repro.pvr.adversary import (
        BadOpeningProver,
        EquivocatingProver,
        LongerRouteProver,
        LyingSuppressor,
        NonMonotoneProver,
        SuppressingProver,
        UnderstatingProver,
    )

    k = int(ctx.params["k"])
    keystore = ctx.keystore()
    spec = workloads.minimum_spec(k)
    for party in spec.parties:
        keystore.register(party)
    judge = Judge(keystore)
    adversaries = [
        ("honest", None),
        ("longer-route", LongerRouteProver(keystore)),
        ("understating", UnderstatingProver(keystore)),
        ("suppressing", SuppressingProver(keystore)),
        ("lying-suppressor", LyingSuppressor(keystore)),
        ("non-monotone", NonMonotoneProver(keystore)),
        ("equivocating", EquivocatingProver(keystore)),
        ("bad-opening", BadOpeningProver(keystore)),
    ]
    routes = workloads.fig1_routes(k, seed=int(ctx.params["seed"]))
    rows, detected = [], 0
    for index, (name, prover) in enumerate(adversaries):
        session = VerificationSession(
            keystore, spec, round=index + 1, prover=prover
        )
        report = session.run(routes, judge=judge)
        deviated = prover is not None
        assert report.detection_ok(deviated), name
        assert report.adjudication.evidence_ok(), name
        if deviated:
            detected += 1
        detectors = list(report.detecting_parties())
        if report.equivocations:
            detectors.append("gossip")
        rows.append((name, "yes" if deviated else "no",
                     ",".join(detectors) or "-"))
    ctx.table(
        f"FIG1 detection matrix (k={k})",
        ["adversary", "deviated", "detected by"],
        rows,
    )
    deviating = len(adversaries) - 1
    return {
        "adversaries": deviating,
        "detected": detected,
        "detection_rate": detected / deviating,
    }


@register(
    "sec32-existential-round",
    "Section 3.2: the single-bit existential protocol round",
    params={"k": 8, "key_bits": 1024},
    quick={"k": 4, "key_bits": 512},
    tags=("existential", "engine"),
)
def _existential(ctx: ExperimentContext):
    k = int(ctx.params["k"])
    spec = workloads.existential_spec(k)
    routes = workloads.existential_routes(k)
    started = time.perf_counter()
    report = _run_session(ctx, spec, routes, round=300 + k)
    elapsed = time.perf_counter() - started
    assert report.variant == "existential"
    assert all(v.ok for v in report.verdicts.values())
    return {
        "k": k,
        "signatures": report.crypto.signatures,
        "verifications": report.crypto.verifications,
        "timing": {"round_seconds": elapsed},
    }


@register(
    "fig2-graph-round",
    "Figure 2 / Sections 3.5-3.7: the two-operator route-flow graph",
    params={"k": 4, "key_bits": 1024},
    quick={"k": 3, "key_bits": 512},
    tags=("fig2", "engine"),
)
def _fig2(ctx: ExperimentContext):
    k = int(ctx.params["k"])
    spec = workloads.figure2_spec(k)
    routes = {
        f"N{i}": workloads.route(f"N{i}", 2 + (i % 5))
        for i in range(1, k + 1)
    }
    started = time.perf_counter()
    report = _run_session(ctx, spec, routes)
    elapsed = time.perf_counter() - started
    assert report.variant == "graph"
    assert all(v.ok for v in report.verdicts.values())
    return {
        "k": k,
        "signatures": report.crypto.signatures,
        "verifications": report.crypto.verifications,
        "timing": {"round_seconds": elapsed},
    }


@register(
    "sec36-merkle",
    "Section 3.6: sparse Merkle tree construction, proofs, verification",
    params={"vertices": 1000},
    quick={"vertices": 100},
    tags=("merkle",),
)
def _merkle(ctx: ExperimentContext):
    from repro.crypto.merkle import SparseMerkleTree
    from repro.util.bitstrings import encode_prefix_free
    from repro.util.rng import DeterministicRandom

    vertices = int(ctx.params["vertices"])
    leaves = {
        encode_prefix_free(f"var(v{i})".encode()): f"payload-{i}".encode()
        for i in range(vertices)
    }
    rng = DeterministicRandom(vertices)
    started = time.perf_counter()
    tree = SparseMerkleTree(leaves, rng.bytes)
    built = time.perf_counter() - started
    target = encode_prefix_free(b"var(v0)")
    proof = tree.prove(target)
    assert proof.verify(tree.root)
    return {
        "vertices": vertices,
        "proof_siblings": len(proof.siblings),
        "timing": {"build_seconds": built},
    }


@register(
    "sec38-crypto-primitives",
    "Section 3.8: RSA sign/verify and SHA-256 microbenchmarks, plus "
    "MHT batch amortization",
    params={"key_bits": 1024, "signs": 20, "hashes": 5000, "burst": 64},
    quick={"key_bits": 512, "signs": 5, "hashes": 500, "burst": 16},
    tags=("sec38", "crypto"),
)
def _crypto_primitives(ctx: ExperimentContext):
    from repro.crypto import rsa
    from repro.crypto.hashing import hash_bytes
    from repro.crypto.merkle import BatchTree

    message = b"UPDATE 10.0.0.0/8 AS-path N2 T0 T1" * 2
    keystore = ctx.keystore()
    keystore.register("A")
    keypair = keystore.private_key("A")
    signs = int(ctx.params["signs"])
    hashes = int(ctx.params["hashes"])
    burst = int(ctx.params["burst"])

    t0 = time.perf_counter()
    for _ in range(signs):
        signature = rsa.sign(keypair, message)
    sign_seconds = (time.perf_counter() - t0) / signs
    t0 = time.perf_counter()
    for _ in range(signs):
        assert rsa.verify(keypair.public, message, signature)
    verify_seconds = (time.perf_counter() - t0) / signs
    t0 = time.perf_counter()
    for _ in range(hashes):
        hash_bytes("bench", message)
    hash_seconds = (time.perf_counter() - t0) / hashes

    updates = [message + str(i).encode() for i in range(burst)]
    t0 = time.perf_counter()
    tree = BatchTree(updates)
    rsa.sign(keypair, tree.root)
    batched_per_update = (time.perf_counter() - t0) / burst

    ctx.table(
        "OVH crypto primitives",
        ["op", "time"],
        [("rsa sign", f"{sign_seconds * 1000:.3f} ms"),
         ("rsa verify", f"{verify_seconds * 1000:.3f} ms"),
         ("sha-256", f"{hash_seconds * 1e6:.2f} us"),
         (f"batched sign / update (burst={burst})",
          f"{batched_per_update * 1000:.3f} ms")],
    )
    return {
        "burst": burst,
        "timing": {
            "sign_seconds": sign_seconds,
            "verify_seconds": verify_seconds,
            "hash_seconds": hash_seconds,
            "batched_sign_per_update_seconds": batched_per_update,
            "sign_hash_ratio": sign_seconds / hash_seconds,
        },
    }


@register(
    "sec38-batching",
    "Section 3.8: per-disclosure vs batched signatures through the engine",
    params={"k": 6, "key_bits": 1024, "max_length": workloads.MAX_LEN},
    quick={"k": 4, "key_bits": 512, "max_length": 8},
    tags=("sec38", "batching"),
)
def _batching(ctx: ExperimentContext):
    k = int(ctx.params["k"])
    max_length = int(ctx.params["max_length"])
    spec = workloads.minimum_spec(k, max_length)
    routes = workloads.fig1_routes(k, seed=4, max_length=max_length)
    signatures = {}
    for label, batching in (("plain", False), ("batched", True)):
        report = _run_session(
            ctx, spec, routes, round=888 + batching, batching=batching
        )
        assert report.accuracy_ok, label
        signatures[label] = report.crypto.signatures
    assert signatures["batched"] < signatures["plain"]
    ctx.table(
        f"FIG1 batching option (k={k}, L={max_length})",
        ["prover", "signatures"],
        sorted(signatures.items()),
    )
    return {
        "k": k,
        "signatures_plain": signatures["plain"],
        "signatures_batched": signatures["batched"],
    }


@register(
    "scale-bgp-sweep",
    "PVR deployed on a converging BGP network: per-round cost at scale",
    params={"tier1": 3, "tier2": 8, "stubs": 20, "seed": 12,
            "key_bits": 1024, "max_rounds": 10},
    quick={"tier1": 2, "tier2": 4, "stubs": 6, "seed": 11,
           "key_bits": 512, "max_rounds": 10},
    tags=("scale", "bgp"),
)
def _bgp_sweep(ctx: ExperimentContext):
    report = run_internet_scale_audit(ctx)
    return {
        "ases": report["ases"],
        "rounds": report["rounds"],
        "signatures": report["signatures"],
        "verifications": report["verifications"],
        "messages": report["messages"],
        "violation_free": report["violation_free"],
        "timing": {"sweep_seconds": report["sweep_seconds"]},
    }


@register(
    "internet-scale-audit",
    "The examples/internet_scale.py audit: topology → BGP convergence → "
    "PVR sweep of every exporting AS",
    params={"tier1": 3, "tier2": 8, "stubs": 20, "seed": 2011,
            "key_bits": 1024, "max_rounds": 20},
    quick={"tier1": 2, "tier2": 4, "stubs": 6, "seed": 2011,
           "key_bits": 512, "max_rounds": 8},
    tags=("scale", "example"),
)
def _internet_scale(ctx: ExperimentContext):
    report = run_internet_scale_audit(ctx)
    timing = {"sweep_seconds": report.pop("sweep_seconds")}
    report["timing"] = timing
    return report


AUDIT_PREFIX = "203.0.113.0/24"


def run_internet_scale_audit(ctx: ExperimentContext) -> dict:
    """Generate a Gao-Rexford topology, converge BGP for a prefix
    originated at a true stub (providers, no customers), and PVR-audit
    every exporting AS.  Shared by the sweep experiments and
    ``examples/internet_scale.py``, which prints its narrative from the
    returned fields so both describe the same run."""
    from repro.bgp.prefix import Prefix
    from repro.pvr.deployment import PVRDeployment
    from repro.topology.generate import TopologyParams, generate, true_stub
    from repro.topology.internet import build_bgp_network

    prefix = Prefix.parse(AUDIT_PREFIX)
    params = TopologyParams(
        tier1=int(ctx.params["tier1"]),
        tier2=int(ctx.params["tier2"]),
        stubs=int(ctx.params["stubs"]),
        seed=int(ctx.params["seed"]),
    )
    graph = generate(params)
    net = build_bgp_network(graph)
    origin = true_stub(graph)
    net.originate(origin, prefix)
    events = net.run_to_quiescence()
    reach = net.reachability(prefix)
    tier1 = graph.tier1_core()[0]
    keystore = ctx.keystore(seed=int(ctx.params["seed"]))
    deployment = PVRDeployment(net, keystore, max_length=16)
    started = time.perf_counter()
    report = deployment.verify_prefix_everywhere(
        prefix, max_rounds=int(ctx.params["max_rounds"])
    )
    sweep_seconds = time.perf_counter() - started
    assert report.rounds
    assert report.violation_free()
    return {
        "ases": len(graph.ases()),
        "edges": graph.edge_count(),
        "tier1_core": list(graph.tier1_core()),
        "origin": origin,
        "events": events,
        "updates": net.total_updates(),
        "reached": sum(1 for r in reach.values() if r is not None),
        "forwarding_path": list(net.forwarding_path(tier1, prefix)),
        "rounds": len(report.rounds),
        "signatures": int(report.total("signatures")),
        "verifications": int(report.total("verifications")),
        "messages": int(report.total("messages")),
        "bytes": int(report.total("bytes")),
        "violation_free": report.violation_free(),
        "sweep_seconds": sweep_seconds,
    }


@register(
    "audit-churn",
    "Continuous audit plane: a Monitor over a churned synthetic "
    "Internet — epochs, incremental reuse, evidence trail",
    params={"scenario": "churn-64as", "key_bits": 1024},
    quick={"scenario": "churn-fig1", "key_bits": 512},
    tags=("audit", "churn"),
)
def _audit_churn(ctx: ExperimentContext):
    from repro.audit.churn import run_churn

    keystore = ctx.keystore()
    started = time.perf_counter()
    result = run_churn(str(ctx.params["scenario"]), keystore)
    elapsed = time.perf_counter() - started
    assert result.violation_free()
    assert result.reused > 0, "churn run exercised no incremental reuse"
    ctx.table(
        f"AUDIT churn epochs ({result.scenario})",
        ["epoch", "events", "verified", "reused", "signs"],
        [(e.epoch, len(e.events), e.verified, e.reused, e.signatures)
         for e in result.epochs],
    )
    return {
        "scenario": result.scenario,
        "epochs": len(result.epochs),
        "events": result.events,
        "verified": result.verified,
        "reused": result.reused,
        "reuse_ratio": result.reuse_ratio(),
        "signatures": result.signatures,
        "verifications": result.verifications,
        "violation_free": result.violation_free(),
        "timing": {"run_seconds": elapsed},
    }


@register(
    "audit-churn-steady",
    "Audit-plane steady state: epochs whose inputs are unchanged are "
    "served entirely from the commitment cache (zero crypto)",
    params={"scenario": "churn-steady", "key_bits": 1024},
    quick={"key_bits": 512},
    tags=("audit", "churn"),
)
def _audit_churn_steady(ctx: ExperimentContext):
    from repro.audit.churn import run_churn

    keystore = ctx.keystore()
    started = time.perf_counter()
    result = run_churn(str(ctx.params["scenario"]), keystore)
    elapsed = time.perf_counter() - started
    assert result.violation_free()
    first, rest = result.epochs[0], result.epochs[1:]
    assert first.signatures > 0
    # every post-churn epoch settles back to the cached commitments
    assert all(e.signatures == 0 and e.reused == len(e.events) for e in rest)
    return {
        "scenario": result.scenario,
        "epochs": len(result.epochs),
        "cold_signatures": first.signatures,
        "steady_signatures": sum(e.signatures for e in rest),
        "reuse_ratio": result.reuse_ratio(),
        "timing": {"run_seconds": elapsed},
    }


@register(
    "strawman-gap",
    "Section 3.1: measured PVR vs modelled SMC/ZKP for the Figure 1 task",
    params={"ks": [2, 4, 8], "key_bits": 1024, "bits": 4},
    quick={"ks": [2, 4], "key_bits": 512},
    tags=("strawman",),
)
def _strawman(ctx: ExperimentContext):
    from repro.strawman.circuits import minimum_length_circuit
    from repro.strawman.smc import SMCCostModel
    from repro.strawman.zkp import ZKPCostModel

    bits = int(ctx.params["bits"])
    smc_model, zkp_model = SMCCostModel(), ZKPCostModel()
    and_gates, smc_seconds, zkp_seconds, pvr_seconds = {}, {}, {}, {}
    rows = []
    for k in ctx.params["ks"]:
        parties = [f"N{i}" for i in range(1, k + 1)]
        circuit = minimum_length_circuit(parties, bits)
        spec = workloads.minimum_spec(k)
        routes = workloads.fig1_routes(k, seed=k)
        started = time.perf_counter()
        report = _run_session(ctx, spec, routes, round=700 + k)
        measured = time.perf_counter() - started
        assert not report.violation_found()
        key = str(k)
        and_gates[key] = circuit.and_gate_count()
        smc_seconds[key] = smc_model.modelled_seconds(and_gates[key], k)
        zkp_seconds[key] = zkp_model.modelled_seconds(circuit.gate_count(), 40)
        pvr_seconds[key] = measured
        rows.append((k, and_gates[key], f"{measured * 1000:.1f} ms",
                     f"{smc_seconds[key]:.2f} s",
                     f"{smc_seconds[key] / measured:.0f}x"))
    ctx.table(
        "STRAW: PVR (measured) vs SMC (modelled)",
        ["k", "AND gates", "PVR", "SMC", "SMC/PVR"],
        rows,
    )
    return {
        "and_gates": and_gates,
        "smc_model_seconds": smc_seconds,
        "zkp_model_seconds": zkp_seconds,
        "timing": {"pvr_seconds": pvr_seconds},
    }


@register(
    "serve-throughput",
    "The sharded serving layer: one scripted mixed workload through 1 "
    "shard vs N, verdict parity self-checked, speedup recorded",
    params={"prefixes": 10, "requests": 28, "shards": 4, "burst": 4,
            "key_bits": 512, "seed": 7, "parity_sample": 4},
    quick={"prefixes": 6, "requests": 12, "shards": 2, "burst": 3},
    tags=("serve", "scale"),
)
def _serve_throughput(ctx: ExperimentContext):
    from repro.serve.bench import run_workload

    shards = int(ctx.params["shards"])
    common = dict(
        prefixes=int(ctx.params["prefixes"]),
        requests=int(ctx.params["requests"]),
        seed=int(ctx.params["seed"]),
        key_bits=int(ctx.params["key_bits"]),
        burst=int(ctx.params["burst"]),
        parity_sample=int(ctx.params["parity_sample"]),
    )
    serial = run_workload(shards=1, **common)
    sharded = run_workload(shards=shards, **common)
    for run in (serial, sharded):
        ctx.track(run.service.keystore)
        assert not run.report.errors, run.report.errors[:1]
        assert run.service.metrics.parity_failed == 0
    # the partition must not change what was verified, only where
    for attribute in ("events", "verified", "reused", "violations"):
        assert getattr(serial.service.metrics, attribute) == getattr(
            sharded.service.metrics, attribute
        ), attribute
    speedup = serial.wall_seconds / sharded.wall_seconds
    completed = sum(
        tm.completed for tm in sharded.service.metrics._types.values()
    )
    ctx.table(
        "SERVE throughput: 1 shard vs N",
        ["shards", "requests", "verified", "reused", "serial s",
         "sharded s", "speedup"],
        [(shards, common["requests"], sharded.service.metrics.verified,
          sharded.service.metrics.reused, f"{serial.wall_seconds:.2f}",
          f"{sharded.wall_seconds:.2f}", f"{speedup:.2f}x")],
    )
    return {
        "shards": shards,
        "requests": common["requests"],
        "events": sharded.service.metrics.events,
        "verified": sharded.service.metrics.verified,
        "reused": sharded.service.metrics.reused,
        "violations": sharded.service.metrics.violations,
        "parity_checked": sharded.service.metrics.parity_checked,
        "parity_failed": sharded.service.metrics.parity_failed,
        "timing": {
            "serial_seconds": serial.wall_seconds,
            "sharded_seconds": sharded.wall_seconds,
            "requests_per_second": completed / sharded.wall_seconds,
        },
        "speedup_vs_serial": speedup,
    }


@register(
    "serve-tail-latency",
    "Open-loop tail latency: Poisson arrivals with hot-prefix skew and "
    "violation probes; p50/p90/p99 per request type",
    params={"prefixes": 8, "requests": 40, "rate": 150.0, "shards": 2,
            "violation_every": 8, "key_bits": 512, "seed": 7,
            "queue_depth": 64},
    quick={"prefixes": 6, "requests": 16, "rate": 120.0},
    tags=("serve", "latency"),
)
def _serve_tail_latency(ctx: ExperimentContext):
    from repro.serve.bench import run_workload

    run = run_workload(
        shards=int(ctx.params["shards"]),
        prefixes=int(ctx.params["prefixes"]),
        requests=int(ctx.params["requests"]),
        rate=float(ctx.params["rate"]),
        violation_every=int(ctx.params["violation_every"]),
        seed=int(ctx.params["seed"]),
        key_bits=int(ctx.params["key_bits"]),
        queue_depth=int(ctx.params["queue_depth"]),
        parity_sample=4,
    )
    ctx.track(run.service.keystore)
    assert not run.report.errors, run.report.errors[:1]
    assert run.service.metrics.parity_failed == 0
    snapshot = run.snapshot
    latency = {
        kind: record["latency"]
        for kind, record in snapshot["requests"].items()
    }
    ctx.table(
        "SERVE tail latency (ms)",
        ["type", "completed", "p50", "p90", "p99"],
        [
            (kind, record["count"],
             *(f"{record[f'p{p}_s'] * 1000:.1f}" for p in (50, 90, 99)))
            for kind, record in sorted(latency.items())
            if record["count"]
        ],
    )
    # admission/coalescing outcomes are load-timing-dependent, so
    # everything observed lands under "timing"; the deterministic part
    # is the offered schedule itself
    return {
        "shards": int(ctx.params["shards"]),
        "requests_offered": run.report.offered,
        "timing": {
            "wall_seconds": run.wall_seconds,
            "delivered": run.report.delivered,
            "rejected": run.report.rejected,
            "latency": latency,
            "epochs": snapshot["epochs"],
            "probes": snapshot["probes"],
            "parity": snapshot["parity"],
        },
    }


@register(
    "serve-overload",
    "Open-loop overload ramp with and without the control plane: the "
    "deterministic stage schedule drives arrival rates past capacity; "
    "without the controller queries queue behind the adjudication "
    "pipeline and their p99 degrades with the rate, with it the "
    "AdaptiveAdmission policy sheds stale queries (never churn or "
    "adjudication) and the completed-query p99 plateaus; the per-stage "
    "p99-under-overload curve is recorded for both runs",
    params={"rates": [4.0, 16.0, 64.0], "per_stage": 24, "prefixes": 6,
            "key_bits": 1024, "batch_max": 2, "queue_depth": 16,
            "violation_every": 1, "latency_bound": 0.02,
            "stale_after": 0.06, "seed": 7},
    quick={"rates": [8.0, 64.0], "per_stage": 16},
    tags=("serve", "control", "overload"),
)
def _serve_overload(ctx: ExperimentContext):
    from repro.serve.bench import run_overload_ramp

    common = dict(
        rates=tuple(float(r) for r in ctx.params["rates"]),
        per_stage=int(ctx.params["per_stage"]),
        prefixes=int(ctx.params["prefixes"]),
        key_bits=int(ctx.params["key_bits"]),
        batch_max=int(ctx.params["batch_max"]),
        queue_depth=int(ctx.params["queue_depth"]),
        violation_every=int(ctx.params["violation_every"]),
        latency_bound=float(ctx.params["latency_bound"]),
        stale_after=float(ctx.params["stale_after"]),
        seed=int(ctx.params["seed"]),
    )
    runs = {}
    for label, controller in (("disabled", False), ("enabled", True)):
        run = run_overload_ramp(controller=controller, **common)
        ctx.track(run.service.keystore)
        snapshot = run.snapshot
        assert snapshot["parity"]["failed"] == 0, label
        requests = snapshot["requests"]
        for kind in ("churn", "adjudicate"):
            record = requests.get(kind)
            assert record is None or record["shed"] == 0, (
                f"{label}: protected kind {kind!r} was shed"
            )
        runs[label] = {"run": run, "snapshot": snapshot}
    # without the controller nothing sheds — the degradation is real
    assert runs["disabled"]["run"].report.shed == 0

    disabled = runs["disabled"]["run"].report.curve()
    enabled = runs["enabled"]["run"].report.curve()
    final_disabled = disabled[-1]["query_p99_s"]
    final_enabled = enabled[-1]["query_p99_s"]
    # the acceptance curve: the controlled run's completed-query p99
    # stays bounded at the top of the ramp (None means every late
    # query was shed — fully bounded) while the uncontrolled one
    # absorbs the whole backlog
    if final_enabled is not None and final_disabled is not None:
        assert final_enabled < final_disabled, (
            f"controller did not bound query p99: "
            f"{final_enabled} >= {final_disabled}"
        )
    control = runs["enabled"]["snapshot"].get("control") or {}
    decisions = control.get("decisions", [])
    assert decisions, "controller emitted no decisions under overload"
    ctx.table(
        "SERVE overload ramp: query p99 by stage",
        ["stage", "rate", "off p99 ms", "off shed", "ctl p99 ms",
         "ctl shed"],
        [
            (d["stage"], d["rate"],
             f"{(d['query_p99_s'] or 0) * 1000:.1f}", d["shed"],
             f"{(e['query_p99_s'] or 0) * 1000:.1f}" if e["query_p99_s"]
             is not None else "all shed", e["shed"])
            for d, e in zip(disabled, enabled)
        ],
    )
    return {
        "rates": [float(r) for r in ctx.params["rates"]],
        "per_stage": common["per_stage"],
        "offered": runs["disabled"]["run"].report.offered,
        "protected_shed": 0,
        "parity_failed": 0,
        "timing": {
            "disabled": {
                "wall_seconds": runs["disabled"]["run"].wall_seconds,
                "curve": disabled,
            },
            "enabled": {
                "wall_seconds": runs["enabled"]["run"].wall_seconds,
                "curve": enabled,
                "shed": runs["enabled"]["run"].report.shed,
                "decisions": len(decisions),
            },
        },
    }


@register(
    "cluster-reshard",
    "Placement-driven multi-process cluster: a churn script submitted "
    "as coalesced epoch-pipelined bursts through process-isolated "
    "Monitor workers with one online ConsistentHash reshard (grow + "
    "cache migration) mid-run; byte parity asserted against an "
    "unsharded monitor driven with the same coalescing, speedup "
    "recorded against the pre-pipelining request-at-a-time serial "
    "drive (coalesced groups settle churn before verifying, so the "
    "pipeline does strictly less crypto)",
    params={"workers": 2, "grow": 1, "prefixes": 8, "rounds": 8,
            "reshard_at": 5, "key_bits": 512, "seed": 2011},
    quick={"prefixes": 6, "rounds": 6, "reshard_at": 4},
    tags=("cluster", "scale"),
)
def _cluster_reshard(ctx: ExperimentContext):
    from repro.cluster import ClusterSpec, PolicySpec
    from repro.cluster.workload import (
        churn_script,
        drive_monitor,
        trail_mismatches,
    )
    from repro.promises.spec import ShortestRoute

    workers = int(ctx.params["workers"])
    grow = int(ctx.params["grow"])
    prefix_count = int(ctx.params["prefixes"])
    rounds = int(ctx.params["rounds"])
    reshard_at = int(ctx.params["reshard_at"])
    seed = int(ctx.params["seed"])
    key_bits = int(ctx.params["key_bits"])

    def network():
        return scenarios.serve_network(prefix_count)[0]

    _, prefixes = scenarios.serve_network(prefix_count)
    spec = ClusterSpec(
        network=network,
        policies=(
            PolicySpec(
                "A",
                ShortestRoute(),
                {"recipients": ("B",), "name": "A/min->B", "max_length": 8},
            ),
        ),
        workers=workers,
        placement="consistent",
        transport="process",
        rng_seed=seed,
        key_bits=key_bits,
        # sparse online self-check: the full byte-parity oracle below is
        # the real gate, and a dense sample would re-prove every verdict
        # serially in the coordinator, drowning the workers' parallelism
        parity_sample=8,
        coalesce_max=reshard_at,
    )
    requests = churn_script(prefixes, rounds=rounds)
    # two equal coalesced bursts with the reshard between them, so the
    # reference's uniform coalesce groups line up with the cluster's
    assert len(requests) == 2 * reshard_at, (
        f"reshard_at={reshard_at} must split the {len(requests)}-request "
        "script into two equal coalesced bursts"
    )

    cluster = spec.build()
    started = time.perf_counter()
    try:
        for request in requests[:reshard_at]:
            cluster.submit(request)
        cluster.pump()
        record = cluster.reshard(workers=cluster.workers + grow)
        for request in requests[reshard_at:]:
            cluster.submit(request)
        cluster.pump()
        cluster_seconds = time.perf_counter() - started
        metrics = cluster.metrics
        assert metrics.parity_failed == 0, "online parity self-check failed"
        assert metrics.coalesced_requests == len(requests), (
            "every request should ride a coalesced epoch group"
        )

        # byte-parity oracle: a monitor driven with the same coalescing
        monitor = spec.build_monitor()
        ctx.track(monitor.keystore)
        drive_monitor(monitor, requests, coalesce=reshard_at)
        mismatches = trail_mismatches(cluster.evidence, monitor.evidence)
        assert not mismatches, mismatches[:3]

        # speedup baseline: the pre-pipelining synchronous path, one
        # request (and its epoch) at a time — coalescing lets churn
        # settle before anything is verified, so the pipelined cluster
        # does strictly less crypto than this drive
        serial = spec.build_monitor()
        ctx.track(serial.keystore)
        serial_started = time.perf_counter()
        drive_monitor(serial, requests)
        serial_seconds = time.perf_counter() - serial_started
        events_per_worker = dict(metrics.worker_events)
    finally:
        cluster.stop()

    speedup = serial_seconds / cluster_seconds
    ctx.table(
        "CLUSTER online reshard: process workers vs serial monitor",
        ["workers", "events", "verified", "reused", "moved/tracked",
         "migrated", "serial s", "cluster s", "speedup"],
        [(f"{workers}->{workers + grow}", metrics.events,
          metrics.verified, metrics.reused,
          f"{record['moved_pairs']}/{record['tracked_pairs']}",
          record["migrated_cache_entries"],
          f"{serial_seconds:.2f}", f"{cluster_seconds:.2f}",
          f"{speedup:.2f}x")],
    )
    return {
        "workers_before": workers,
        "workers_after": workers + grow,
        "events": metrics.events,
        "verified": metrics.verified,
        "reused": metrics.reused,
        "violations": metrics.violations,
        "keys_moved": record["moved_pairs"],
        "tracked_pairs": record["tracked_pairs"],
        "keys_moved_fraction": record["moved_fraction"],
        "migrated_cache_entries": record["migrated_cache_entries"],
        "parity_mismatches": 0,
        "parity_failed": metrics.parity_failed,
        "timing": {
            "serial_seconds": serial_seconds,
            "cluster_seconds": cluster_seconds,
            "parity_checked": metrics.parity_checked,
            "events_per_worker": {
                str(k): v for k, v in sorted(events_per_worker.items())
            },
        },
        "speedup_vs_serial": speedup,
    }


@register(
    "ledger-steady-honest",
    "Accountability ledger feedback on an honest steady-state churn "
    "workload: the same script drives a ledger-free monitor and a "
    "ledger-enabled one (promotion after N clean epochs, TRUSTED "
    "sampled at rate r < 1); records signatures with and without "
    "trust-driven sampling and asserts a strict steady-state reduction "
    "once the audited AS reaches TRUSTED",
    params={"prefixes": 6, "rounds": 10, "promote_after": 2,
            "trusted_rate": 0.5, "key_bits": 512, "seed": 2011},
    quick={"prefixes": 4, "rounds": 8},
    tags=("ledger", "audit"),
)
def _ledger_steady_honest(ctx: ExperimentContext):
    from repro.cluster import ClusterSpec, PolicySpec
    from repro.cluster.workload import churn_script, drive_monitor
    from repro.ledger import LedgerPolicy, TrustLevel
    from repro.promises.spec import ShortestRoute

    prefix_count = int(ctx.params["prefixes"])
    rounds = int(ctx.params["rounds"])
    promote_after = int(ctx.params["promote_after"])
    trusted_rate = float(ctx.params["trusted_rate"])
    seed = int(ctx.params["seed"])
    key_bits = int(ctx.params["key_bits"])

    def network():
        return scenarios.serve_network(prefix_count)[0]

    _, prefixes = scenarios.serve_network(prefix_count)
    requests = churn_script(prefixes, rounds=rounds)
    policy = LedgerPolicy(
        clean_epochs_to_promote=promote_after,
        sampling_rates={TrustLevel.TRUSTED: trusted_rate},
    )

    def spec(ledger):
        return ClusterSpec(
            network=network,
            policies=(
                PolicySpec(
                    "A",
                    ShortestRoute(),
                    {"recipients": ("B",), "name": "A/min->B",
                     "max_length": 8},
                ),
            ),
            rng_seed=seed,
            key_bits=key_bits,
            ledger=ledger,
        )

    results = {}
    for label, ledger in (("without", None), ("with", policy)):
        monitor = spec(ledger).build_monitor()
        ctx.track(monitor.keystore)
        started = time.perf_counter()
        drive_monitor(monitor, requests)
        results[label] = {
            "monitor": monitor,
            "seconds": time.perf_counter() - started,
            "signatures": monitor.keystore.sign_count,
            "events": len(monitor.evidence),
        }

    with_ledger = results["with"]["monitor"]
    ledger = with_ledger.ledger
    ledger.settle()
    trusted_at = next(
        (
            record.epoch
            for record in ledger.history.records()
            if record.to_level is TrustLevel.TRUSTED
        ),
        None,
    )
    assert trusted_at is not None, "the honest AS never reached TRUSTED"
    assert ledger.history.verify(), "transition hash chain broken"
    sampled_out = with_ledger.intensity.sampled_out
    assert sampled_out > 0, "trust sampling never skipped a tuple"
    signatures_without = results["without"]["signatures"]
    signatures_with = results["with"]["signatures"]
    assert signatures_with < signatures_without, (
        f"no steady-state signature reduction: "
        f"{signatures_with} >= {signatures_without}"
    )

    ctx.table(
        "LEDGER steady honest: trust-sampled vs full verification",
        ["run", "events", "signatures", "sampled out", "TRUSTED at",
         "seconds"],
        [
            ("ledger-free", results["without"]["events"],
             signatures_without, "-", "-",
             f"{results['without']['seconds']:.2f}"),
            (f"ledger r={trusted_rate}", results["with"]["events"],
             signatures_with, sampled_out, f"epoch {trusted_at}",
             f"{results['with']['seconds']:.2f}"),
        ],
    )
    return {
        "prefixes": prefix_count,
        "rounds": rounds,
        "promote_after": promote_after,
        "trusted_rate": trusted_rate,
        "signatures_without_ledger": signatures_without,
        "signatures_with_ledger": signatures_with,
        "signature_reduction": signatures_without - signatures_with,
        "events_without_ledger": results["without"]["events"],
        "events_with_ledger": results["with"]["events"],
        "sampled_out": sampled_out,
        "trusted_at_epoch": trusted_at,
        "transitions": len(ledger.history),
        "chain_verified": True,
        "timing": {
            "without_seconds": results["without"]["seconds"],
            "with_seconds": results["with"]["seconds"],
        },
    }


@register(
    "cluster-recovery",
    "Coordinator durability: a journaled cluster run (write-ahead "
    "records at every fold seam, periodic checkpoint compaction) "
    "crashed mid-script and restarted — measures the journal's append "
    "overhead against the epoch wall, the cold replay, and asserts the "
    "recovered-and-finished trail is byte-identical to an uncrashed "
    "unsharded monitor",
    params={"workers": 3, "prefixes": 8, "rounds": 8,
            "checkpoint_every": 4, "key_bits": 512, "seed": 2011},
    quick={"prefixes": 6, "rounds": 6, "checkpoint_every": 3},
    tags=("cluster", "durability"),
)
def _cluster_recovery(ctx: ExperimentContext):
    import os
    import tempfile

    from repro.cluster import ClusterSpec, PolicySpec
    from repro.cluster.workload import (
        churn_script,
        drive_monitor,
        trail_mismatches,
    )
    from repro.promises.spec import ShortestRoute

    workers = int(ctx.params["workers"])
    prefix_count = int(ctx.params["prefixes"])
    rounds = int(ctx.params["rounds"])
    checkpoint_every = int(ctx.params["checkpoint_every"])
    seed = int(ctx.params["seed"])
    key_bits = int(ctx.params["key_bits"])

    def network():
        return scenarios.serve_network(prefix_count)[0]

    _, prefixes = scenarios.serve_network(prefix_count)
    requests = churn_script(prefixes, rounds=rounds)

    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as base:
        spec = ClusterSpec(
            network=network,
            policies=(
                PolicySpec(
                    "A",
                    ShortestRoute(),
                    {"recipients": ("B",), "name": "A/min->B",
                     "max_length": 8},
                ),
            ),
            workers=workers,
            placement="consistent",
            transport="inline",
            rng_seed=seed,
            key_bits=key_bits,
            parity_sample=0,
            journal=os.path.join(base, "journal"),
            journal_checkpoint_every=checkpoint_every,
        )

        # phase 1: the journaled run, crashed two thirds in.  The
        # abandon (no stop()) is exactly what a coordinator death
        # leaves behind; every journal append up to it is on disk.
        crash_at = max(1, (2 * len(requests)) // 3)
        cluster = spec.build()
        for request in requests[:crash_at]:
            cluster.request(request)
        journal_stats = cluster.journal.stats()
        epoch_summary = cluster.metrics.epoch_wall.summary()
        epoch_wall = (
            (epoch_summary["count"] or 0) * (epoch_summary["mean_s"] or 0.0)
        )
        overhead = (
            journal_stats["wall_seconds"] / epoch_wall if epoch_wall else 0.0
        )
        if ctx.quick:
            assert overhead < 0.05, (
                f"journal append overhead {overhead:.1%} of epoch wall "
                f"exceeds the 5% budget"
            )

        # phase 2: the restart — replay the journal, cold-respawn the
        # fleet, finish the script
        recovery_started = time.perf_counter()
        recovered = spec.build()
        recovery_seconds = time.perf_counter() - recovery_started
        try:
            recovery = recovered.metrics.recoveries[0]
            assert recovered.recovered_requests == crash_at
            for request in requests[recovered.recovered_requests:]:
                recovered.request(request)

            monitor = spec.build_monitor()
            ctx.track(monitor.keystore)
            drive_monitor(monitor, requests)
            mismatches = trail_mismatches(
                recovered.evidence, monitor.evidence
            )
            assert not mismatches, mismatches[:3]
            events = len(recovered.evidence.events())
        finally:
            recovered.stop()

    ctx.table(
        "CLUSTER durability: journaled run, crash and replay",
        ["requests", "crash at", "records", "bytes", "append overhead",
         "recovery s"],
        [(len(requests), crash_at, journal_stats["appended"],
          journal_stats["bytes_written"], f"{overhead:.2%}",
          f"{recovery_seconds:.3f}")],
    )
    return {
        "requests": len(requests),
        "crashed_after_requests": crash_at,
        "events": events,
        "parity_mismatches": 0,
        # record bodies carry wall-clock floats, so the byte count
        # wobbles with their repr; it lives under timing with the walls
        "journal": {
            key: journal_stats[key]
            for key in ("appended", "fsyncs", "segments", "seq")
        },
        "recovery": {
            "replayed_records": recovery["replayed_records"],
            "committed_requests": recovery["committed_requests"],
            "spawned_workers": recovery["spawned_workers"],
        },
        "timing": {
            "epoch_wall_seconds": epoch_wall,
            "journal_wall_seconds": journal_stats["wall_seconds"],
            "journal_bytes_written": journal_stats["bytes_written"],
            "append_overhead_fraction": overhead,
            "recovery_seconds": recovery_seconds,
        },
    }
