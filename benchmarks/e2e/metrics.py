"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the same list as code, and the self-test asserts
the two agree.  Later issues cite these names verbatim.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS: Dict[str, str] = {
    "table-cold": (
        "serial Monitor, every request changes every input: all rounds "
        "fresh, so crypto/pvr/encoding do the work and the cache none"
    ),
    "steady-sweep": (
        "same Monitor, warm cache: resyncs and bounces settle to cache "
        "hits, zero signatures; planning, store growth and bgp dominate"
    ),
    "cluster-durable": (
        "2-process journaled cluster, coordinator SIGKILLed mid-script: "
        "pickle+pipe transport, fold, journal fsync and recovery on path"
    ),
    "serve-mixed": (
        "open-loop arrivals on the 2-shard asyncio service: admission, "
        "queueing, coalescing and reads blocked behind audit epochs"
    ),
}

#: (name, unit, better, bound, workloads it is defined on).  A metric
#: that is undefined on a workload is ``null`` in the suite report.
#: The bound is the share of the parent's median by which the metric may
#: worsen.  Timings get 0.25: on the 2-CPU reference host a fixed
#: ``pow`` loop drifts by a tenth over minutes, and ten runs of one
#: workload spread (inter-quartile) by 4-8 % of their median.
E2E: List[Tuple[str, str, str, float, Tuple[str, ...]]] = [
    ("setup_s", "s", "lower", 0.25, tuple(WORKLOADS)),
    ("verified_rounds_per_s", "rounds/s", "higher", 0.25,
     ("table-cold", "cluster-durable")),
    ("events_per_s", "events/s", "higher", 0.25, tuple(WORKLOADS)),
    ("churn_to_verdict_p50_ms", "ms", "lower", 0.25, tuple(WORKLOADS)),
    ("query_p50_ms", "ms", "lower", 0.25, ("serve-mixed",)),
    ("goodput_rps", "req/s", "higher", 0.25, tuple(WORKLOADS)),
    ("recovery_s", "s", "lower", 0.25, ("cluster-durable",)),
    ("peak_rss_mb", "MB", "lower", 0.10, tuple(WORKLOADS)),
    ("failed_fraction", "ratio", "lower", 0.0, tuple(WORKLOADS)),
]

#: the end-to-end metrics the driver's contract can gate: defined and
#: non-zero on every workload.  The rest ride in the per-layer list.
CONTRACT_E2E = tuple(
    name for name, _u, _b, _bound, on in E2E
    if len(on) == len(WORKLOADS) and name != "failed_fraction"
)

PVR_VARIANTS = {
    "minimum": "fig1-minimum",
    "minimum-batched": "fig1-batched",
    "existential": "sec32-existential",
    "graph": "fig2-multiop",
    "crosscheck": "promise4-honest",
}

#: (name, unit, better).  Direction is informative only: per-layer
#: metrics have no bound.
PER_LAYER: List[Tuple[str, str, str]] = [
    # crypto, microdrivers
    ("crypto.rsa_sign_us", "us", "lower"),
    ("crypto.rsa_verify_us", "us", "lower"),
    ("crypto.hash_us", "us", "lower"),
    ("crypto.merkle_batch_us_per_leaf", "us", "lower"),
    ("crypto.commit_us", "us", "lower"),
    ("crypto.keygen_ms", "ms", "lower"),
    # crypto, counted over the drive
    ("crypto.signatures", "count", "lower"),
    ("crypto.verifications", "count", "lower"),
    ("crypto.hashes", "count", "lower"),
    ("crypto.signatures_per_round", "count", "lower"),
    ("crypto.modexp_s", "s", "lower"),
    ("crypto.modexp_share", "ratio", "lower"),
    ("util.encode_us", "us", "lower"),
    ("util.encode_mb_per_s", "MB/s", "higher"),
    *[(f"pvr.round_ms.{v}", "ms", "lower") for v in PVR_VARIANTS],
    *[(f"pvr.round_signatures.{v}", "count", "lower") for v in PVR_VARIANTS],
    ("pvr.judge_ms", "ms", "lower"),
    ("net.wire_bytes", "count", "lower"),
    ("net.wire_messages", "count", "lower"),
    ("bgp.build_s", "s", "lower"),
    ("bgp.quiesce_s", "s", "lower"),
    ("bgp.quiesce_share", "ratio", "lower"),
    ("audit.plan_s", "s", "lower"),
    ("audit.execute_s", "s", "lower"),
    ("audit.plan_share", "ratio", "lower"),
    ("audit.epochs", "count", "lower"),
    ("audit.events", "count", "higher"),
    ("audit.verified", "count", "higher"),
    ("audit.reused", "count", "higher"),
    ("audit.reuse_ratio", "ratio", "higher"),
    ("audit.deferred", "count", "lower"),
    ("audit.fresh_round_ms", "ms", "lower"),
    ("audit.reused_event_us", "us", "lower"),
    ("audit.probe_ms", "ms", "lower"),
    ("audit.store_events", "count", "higher"),
    ("audit.query_us", "us", "lower"),
    ("audit.adjudicate_ms", "ms", "lower"),
    ("cluster.build_s", "s", "lower"),
    ("cluster.request_p50_ms", "ms", "lower"),
    ("cluster.request_p90_ms", "ms", "lower"),
    ("cluster.speedup_vs_monitor", "ratio", "higher"),
    ("cluster.parallel_efficiency", "ratio", "higher"),
    ("cluster.worker_events_skew", "ratio", "lower"),
    ("cluster.coalesced_mean", "count", "higher"),
    ("cluster.respawns", "count", "lower"),
    ("cluster.stop_s", "s", "lower"),
    ("cluster.parity_mismatches", "count", "lower"),
    # journal, microdrivers
    ("journal.append_us", "us", "lower"),
    ("journal.sync_ms", "ms", "lower"),
    ("journal.checkpoint_ms", "ms", "lower"),
    # journal, counted over the drive
    ("journal.appended", "count", "lower"),
    ("journal.bytes_written", "bytes", "lower"),
    ("journal.fsyncs", "count", "lower"),
    ("journal.wall_s", "s", "lower"),
    ("journal.bytes_per_event", "bytes", "lower"),
    ("journal.replay_s", "s", "lower"),
    ("journal.replayed_records", "count", "lower"),
    ("journal.recover_spawned", "count", "lower"),
    ("journal.recover_adopted", "count", "higher"),
    ("serve.flap_p50_ms", "ms", "lower"),
    ("serve.probe_p50_ms", "ms", "lower"),
    ("serve.reorig_p50_ms", "ms", "lower"),
    ("serve.adjudicate_p50_ms", "ms", "lower"),
    ("serve.churn_p90_ms", "ms", "lower"),
    ("serve.query_p90_ms", "ms", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p90_ms", "ms", "lower"),
    ("serve.epochs", "count", "lower"),
    ("serve.coalesced_mean", "count", "higher"),
    ("serve.utilisation", "ratio", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.dropped", "count", "lower"),
    ("serve.shard_skew", "ratio", "lower"),
    ("serve.drain_s", "s", "lower"),
    ("serve.start_s", "s", "lower"),
    ("serve.stop_s", "s", "lower"),
    ("loadgen.lag_p90_ms", "ms", "lower"),
    ("loadgen.lag_max_ms", "ms", "lower"),
    ("loadgen.offered", "count", "higher"),
    ("obs.trace_overhead_fraction", "ratio", "lower"),
    ("obs.program_spans", "count", "lower"),
    ("host.cpus", "count", "higher"),
    ("host.python", "version", "higher"),
    ("host.calibration_s", "s", "lower"),
]

#: per-layer metrics that are counts made by the program: they repeat
#: exactly for a fixed seed on the three scripted workloads
COUNT_METRICS = tuple(
    name for name, unit, _ in PER_LAYER
    if unit == "count" and not name.startswith(("host.", "loadgen.", "obs."))
)


def e2e_entry(name: str) -> Tuple[str, str, str, float, Tuple[str, ...]]:
    return next(entry for entry in E2E if entry[0] == name)


def contract_per_layer() -> List[Tuple[str, str, str]]:
    """The per-layer list as ``BENCHMARK.json`` carries it: the layer
    metrics plus the end-to-end metrics the contract cannot gate."""
    demoted = [
        (name, unit, better)
        for name, unit, better, _bound, _on in E2E
        if name not in CONTRACT_E2E
    ]
    return demoted + PER_LAYER


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def lower_quartile(values: Sequence[float]) -> float:
    return _quartiles(values)[0]


def upper_quartile(values: Sequence[float]) -> float:
    return _quartiles(values)[2]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (the rule ``repro.control.signals`` uses)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3
