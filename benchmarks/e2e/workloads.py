"""The four workloads: load generation, span-instrumented drivers and
correctness checks.

All share one scenario — ``serve_network(P)`` (Figure 1 plus customer
``B2``, ``P`` prefixes originated at ``O``), one ``ShortestRoute``
policy at ``A`` toward ``B``, ``max_length=8``, 1024-bit keys, two
workers/shards — and differ in which layers they load:

* ``table-cold``    serial Monitor, every request re-proves the table;
* ``steady-sweep``  the same Monitor serving everything from its cache;
* ``cluster-durable`` the journaled 2-process cluster, coordinator
  SIGKILLed mid-script and recovered;
* ``serve-mixed``   open-loop arrivals on the sharded asyncio service.

The program receives only generated requests: scripts and schedules are
built here from ``--seed``.  Every call into the program sits inside a
span of the benchmark's own recorder (:mod:`spans`), which is off in the
pass that yields the end-to-end metrics.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    ClusterSpec,
    PolicySpec,
    QueryRequest,
    ShedError,
)
from repro.crypto.hashing import hash_count
from repro.journal import Journal, recover_state
from repro.promises import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import (
    apply_step,
    bounce_session,
    flap_session,
    reoriginate,
    restore_session,
    serve_network,
)
from repro.serve import VerificationService

import host
from metrics import lower_quartile, median, ms, percentile, upper_quartile
from spans import CLOCK, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))

WORKERS = 2
MAX_LENGTH = 8
#: the program's own key and nonce seed.  Fixed: ``--seed`` varies the
#: generated load only, so key search luck and per-key signing cost do
#: not differ between runs that are compared
KEY_SEED = 2011
POLICY_NAME = "A/min->B"
#: the run length the count knobs below were sized for
REFERENCE_SECONDS = 10.0
#: latency limits of the open-loop workload, per request kind
LIMITS = {"query": 0.250, "churn": 2.0, "adjudicate": 2.0}
#: requests per cycle of equal work in the scripted workloads
CLUSTER_CYCLE = 4  # flap, restore, reoriginate, bounce + probe
SWEEP_CYCLE = 3  # resync, bounce, re-origination burst


# -- sizes -------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """The count knobs of one run.  Frozen for ``REFERENCE_SECONDS``;
    another ``--seconds`` scales the request counts, never ``P``."""

    key_bits: int
    prefixes: int
    #: table-cold: flap/restore requests after the initial audit
    flaps: int = 0
    #: steady-sweep: requests in the drive
    sweep_requests: int = 0
    #: cluster-durable: churn rounds, and the ack after which the
    #: coordinator is killed
    rounds: int = 0
    kill_after: int = 0
    #: serve-mixed: arrivals and their rate
    arrivals: int = 0
    rate: float = 0.0


def sizes_for(workload: str, seconds: float, smoke: bool) -> Sizes:
    if smoke:
        toy = Sizes(key_bits=512, prefixes=4)
        return {
            "table-cold": replace(toy, flaps=2),
            "steady-sweep": replace(toy, sweep_requests=2 * SWEEP_CYCLE),
            "cluster-durable": replace(
                toy, rounds=2 * CLUSTER_CYCLE, kill_after=6
            ),
            "serve-mixed": replace(toy, arrivals=24, rate=24.0),
        }[workload]
    scale = seconds / REFERENCE_SECONDS

    def scaled(count: int, least: int, step: int = 1) -> int:
        return max(least, round(count * scale / step) * step)

    if workload == "table-cold":
        return Sizes(1024, 32, flaps=scaled(9, 2))
    if workload == "steady-sweep":
        return Sizes(
            1024, 64, sweep_requests=scaled(540, SWEEP_CYCLE, SWEEP_CYCLE)
        )
    if workload == "cluster-durable":
        rounds = scaled(48, 2 * CLUSTER_CYCLE, CLUSTER_CYCLE)
        # two acks past a checkpoint (every 4 commits), so recovery
        # replays a checkpoint plus an uncommitted-looking suffix
        return Sizes(1024, 16, rounds=rounds,
                     kill_after=(rounds * 3 // 4) // 4 * 4 + 2)
    if workload == "serve-mixed":
        return Sizes(1024, 16, arrivals=scaled(120, 20), rate=12.0)
    raise ValueError(f"unknown workload {workload!r}")


# -- the scenario ------------------------------------------------------------


def build_network(prefix_count: int):
    """Module-level (picklable) network factory for ``ClusterSpec``."""
    return serve_network(prefix_count)[0]


def cluster_spec(sizes: Sizes, **options) -> ClusterSpec:
    """The common scenario as a spec.  ``build_monitor()`` gives the
    unsharded Monitor, ``build()`` the process cluster."""
    return ClusterSpec(
        network=functools.partial(build_network, sizes.prefixes),
        policies=(
            PolicySpec(
                "A",
                ShortestRoute(),
                {
                    "recipients": ("B",),
                    "name": POLICY_NAME,
                    "max_length": MAX_LENGTH,
                },
            ),
        ),
        workers=WORKERS,
        placement="consistent",
        transport="process",
        rng_seed=KEY_SEED,
        key_bits=sizes.key_bits,
        parity_sample=0,
        **options,
    )


def prefixes_of(sizes: Sizes):
    return serve_network(sizes.prefixes)[1]


# -- load generation ---------------------------------------------------------


def _resync(prefixes) -> ChurnRequest:
    return ChurnRequest(marks=tuple(("A", p) for p in prefixes))


def _probe(prefix) -> AuditProbe:
    return AuditProbe(
        asn="A", prefix=prefix, recipient="B", prover=LongerRouteProver,
        max_length=MAX_LENGTH,
    )


def table_cold_script(sizes: Sizes, seed: int) -> List[ChurnRequest]:
    """Initial audit, then alternating flap/restore.  Either session
    feeds every route at ``A``, so each request re-proves the table."""
    order = [("O", "N2"), ("X", "N1")]
    random.Random(seed).shuffle(order)
    script = [ChurnRequest()]
    for index in range(sizes.flaps):
        session = order[(index // 2) % 2]
        builder = flap_session if index % 2 == 0 else restore_session
        script.append(ChurnRequest(steps=((builder, session),)))
    return script


def steady_sweep_script(sizes: Sizes, seed: int) -> List[ChurnRequest]:
    """Cycles of {full resync, session bounce, a burst of
    re-originations}: every input settles back, so all cache hits."""
    rng = random.Random(seed)
    prefixes = prefixes_of(sizes)
    script = []
    while len(script) < sizes.sweep_requests:
        burst = rng.sample(prefixes, min(8, len(prefixes)))
        script.extend([
            _resync(prefixes),
            ChurnRequest(steps=((bounce_session, ("X", "N1")),)),
            ChurnRequest(
                steps=tuple((reoriginate, ("O", p)) for p in burst)
            ),
        ])
    return script[: sizes.sweep_requests]


def cluster_script(sizes: Sizes, seed: int) -> List[ChurnRequest]:
    """Initial audit, ``rounds`` cycling flap / restore / reoriginate /
    bounce with a Byzantine probe on every fourth (the session is up
    again by then, so a longer route exists to cheat with), resync."""
    rng = random.Random(seed)
    prefixes = prefixes_of(sizes)
    script = [ChurnRequest()]
    for index in range(sizes.rounds):
        phase = index % 4
        if phase == 0:
            steps = ((flap_session, ("O", "N2")),)
        elif phase == 1:
            steps = ((restore_session, ("O", "N2")),)
        elif phase == 2:
            steps = ((reoriginate, ("O", rng.choice(prefixes))),)
        else:
            steps = ((bounce_session, ("X", "N1")),)
        probes = (_probe(rng.choice(prefixes)),) if phase == 3 else ()
        script.append(ChurnRequest(steps=steps, probes=probes))
    script.append(_resync(prefixes))
    return script


@dataclass
class Op:
    """One scheduled arrival of the open-loop workload."""

    offset: float
    kind: str  # flap | probe | reorig | query | adjudicate
    request: object

    @property
    def limit(self) -> float:
        return LIMITS[self.request.kind]


def serve_schedule(sizes: Sizes, seed: int) -> List[Op]:
    """``arrivals`` requests at ``rate`` per second.

    The mix is exact, not drawn — 40 % churn (of which 25 % flap or
    restore, 20 % Byzantine probes, 55 % re-originations of a
    Zipf(1.1)-ranked prefix), 55 % queries, 5 % adjudications — and
    only its order and timing come from the seed, so runs with
    different seeds do the same amount of work.  Arrival times are a
    Poisson process conditioned on its count: sorted uniform draws over
    the window.  The flaps alone keep to a jittered grid: two that
    coalesce into one epoch cancel out and cost nothing, which would
    make the work depend on the seed.  The flapped session is ``X-N1``:
    with it down ``A`` still hears routes of two lengths, so a probe can
    cheat at any time.
    """
    rng = random.Random(seed)
    prefixes = prefixes_of(sizes)
    total = sizes.arrivals
    churn = round(total * 0.40)
    adjudicate = max(1, round(total * 0.05))
    flaps = max(2, round(churn * 0.25))
    probes = max(1, round(churn * 0.20))
    kinds = (
        ["probe"] * probes
        + ["reorig"] * (churn - flaps - probes)
        + ["adjudicate"] * adjudicate
    )
    kinds += ["query"] * (total - flaps - len(kinds))
    window = total / sizes.rate
    slot = window / flaps
    arrivals = [
        ((index + 0.5 + rng.uniform(-0.2, 0.2)) * slot, "flap")
        for index in range(flaps)
    ]
    arrivals += [(rng.uniform(0.0, window), kind) for kind in kinds]
    arrivals.sort()
    weights = [1.0 / (rank ** 1.1) for rank in range(1, len(prefixes) + 1)]
    schedule = []
    down = False
    for offset, kind in arrivals:
        if kind == "flap":
            builder = restore_session if down else flap_session
            down = not down
            request = ChurnRequest(steps=((builder, ("X", "N1")),))
        elif kind == "probe":
            request = ChurnRequest(probes=(_probe(rng.choice(prefixes)),))
        elif kind == "reorig":
            prefix = rng.choices(prefixes, weights)[0]
            request = ChurnRequest(steps=((reoriginate, ("O", prefix)),))
        elif kind == "query":
            request = QueryRequest(rng.choice(("summary", "violations")))
        else:
            request = AdjudicateRequest()
        schedule.append(Op(offset, kind, request))
    return schedule


# -- shared plumbing ---------------------------------------------------------


@dataclass
class Context:
    """One pass over one workload."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    #: the benchmark's recorder is on and the program's public tracing
    #: options are switched on
    trace: bool
    #: how many times set-up runs (the median is reported)
    setups: int
    out_dir: str
    rec: Recorder = field(init=False)

    def __post_init__(self) -> None:
        self.rec = Recorder(self.trace)

    @property
    def sizes(self) -> Sizes:
        return sizes_for(self.workload, self.seconds, self.smoke)


@dataclass
class Result:
    """What one pass measured.  ``e2e`` and ``layer`` map metric names
    to values; a metric that is not defined on the workload is absent
    or ``None``."""

    e2e: Dict[str, Optional[float]] = field(default_factory=dict)
    layer: Dict[str, Optional[float]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    #: per-request samples behind the medians, for the detail file
    raw: Dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: drive wall, and how many processes shared the crypto work
    wall_s: float = 0.0
    parallel: int = 1
    #: what the tracing-overhead comparison is made on: the
    #: lower-quartile cycle wall (closed loops), summed epoch wall (open)
    busy_s: float = 0.0
    #: kept for the traced pass's parity check (cluster-durable)
    trail: object = None
    flags: Dict[str, object] = field(default_factory=dict)

    def fail(self, count: int, text: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} x {text}")


def _event_checks(result: Result, events: Sequence, probes: int) -> None:
    """Every honest verdict is OK; every probe is a violation."""
    honest = [e for e in events if e.epoch is not None]
    result.attempted += len(events)
    result.fail(
        sum(1 for e in honest if not e.ok()),
        "honest round with a non-OK verdict",
    )
    caught = [e for e in events if e.epoch is None and e.violation_found()]
    result.fail(probes - len(caught), "probe without a violation verdict")


def _judge_checks(result: Result, store) -> float:
    """The judge upholds the evidence of every stored violation.
    Returns the seconds the adjudication took."""
    started = CLOCK()
    rulings = store.adjudicate()
    elapsed = CLOCK() - started
    result.fail(
        sum(
            1 for ruling in rulings.values()
            if not (ruling.guilty() and ruling.evidence_ok())
        ),
        "probe without judge-valid violation evidence",
    )
    return elapsed


def _trail_counts(events: Sequence) -> Dict[str, int]:
    return {
        "events": len(events),
        "verified": sum(1 for e in events if not e.reused),
        "reused": sum(1 for e in events if e.reused),
        "signatures": sum(e.stats.signatures for e in events),
        "verifications": sum(e.stats.verifications for e in events),
        "wire_bytes": sum(e.stats.bytes for e in events),
        "wire_messages": sum(e.stats.messages for e in events),
    }


def cycle_rates(latencies: Sequence[float], marks: Sequence[int],
                events: Sequence, first: int, size: int) -> Dict[str, float]:
    """Throughput of a closed-loop drive, from its fastest quarter.

    Request ``i`` took ``latencies[i]`` and left ``marks[i]`` events in
    the trail ``events``; cycles are the whole groups of ``size``
    requests from request ``first`` on, each the same work.  A rate is
    the upper quartile over cycles of work / wall: what the program
    sustains while the host leaves it alone.  On the shared 2-CPU
    reference host contention only ever adds time, in phases of seconds,
    and between runs the median cycle moved half as much again as the
    lower-quartile one (total work over total wall, twice as much).
    """
    walls, rounds, recorded = [], [], []
    for start in range(first, len(latencies) - size + 1, size):
        lo = marks[start - 1] if start else 0
        hi = marks[start + size - 1]
        walls.append(sum(latencies[start:start + size]))
        recorded.append(hi - lo)
        rounds.append(sum(1 for e in events[lo:hi] if not e.reused))

    def rate(work: Sequence[float]) -> float:
        return upper_quartile([n / w for n, w in zip(work, walls)])

    return {
        "cycle_s": lower_quartile(walls),
        "cycles": len(walls),
        "events_per_s": rate(recorded),
        "verified_rounds_per_s": rate(rounds),
        "goodput_rps": rate([size] * len(walls)),
    }


#: what the parity check compares of two events, by name
TRAIL_FIELDS = (
    "seq", "epoch", "round", "asn", "prefix", "policy", "reused", "spec",
    "routes", "verdicts", "equivocations", "evidence", "complaints",
    "signatures", "verifications", "messages", "bytes",
)


def _fingerprint(event) -> tuple:
    report, stats = event.report, event.stats
    return (
        event.seq, event.epoch, event.round, event.asn, str(event.prefix),
        event.policy, event.reused, event.spec, event.routes,
        report.verdicts, report.equivocations, report.all_evidence(),
        report.all_complaints(), stats.signatures, stats.verifications,
        stats.messages, stats.bytes,
    )


def trail_mismatches(ours: Sequence, theirs: Sequence) -> List[str]:
    """Every way two evidence trails differ (empty = byte-identical):
    identities, verdict/evidence/complaint bytes, crypto and transport
    counters of each event, in order."""
    problems = []
    if len(ours) != len(theirs):
        problems.append(f"event counts differ: {len(ours)} vs {len(theirs)}")
    for a, b in zip(ours, theirs):
        differing = [
            name for name, x, y in
            zip(TRAIL_FIELDS, _fingerprint(a), _fingerprint(b)) if x != y
        ]
        if differing:
            problems.append(f"seq {a.seq}: {', '.join(differing)} differ")
    return problems


def _common_layer(result: Result, counts: Dict[str, int]) -> None:
    layer = result.layer
    layer["crypto.signatures"] = counts["signatures"]
    layer["crypto.verifications"] = counts["verifications"]
    layer["crypto.signatures_per_round"] = (
        counts["signatures"] / counts["verified"]
        if counts["verified"] else None
    )
    layer["net.wire_bytes"] = counts["wire_bytes"]
    layer["net.wire_messages"] = counts["wire_messages"]
    layer["audit.events"] = counts["events"]
    layer["audit.verified"] = counts["verified"]
    layer["audit.reused"] = counts["reused"]
    layer["audit.reuse_ratio"] = (
        counts["reused"] / counts["events"] if counts["events"] else None
    )


def _timed_setups(ctx: Context, setup, teardown):
    """Run ``setup`` ``ctx.setups`` times, tearing down all but the
    last; returns (median set-up seconds, the last set-up's state)."""
    times = []
    state = None
    for index in range(ctx.setups):
        if state is not None:
            teardown(state)
        started = CLOCK()
        with ctx.rec.span("bench.setup", "setup"):
            state = setup()
        times.append(CLOCK() - started)
    return median(times), state


# -- the span-instrumented monitor driver ------------------------------------


@dataclass
class Tally:
    epochs: int = 0
    deferred: int = 0
    latencies: List[float] = field(default_factory=list)
    #: events in the store after each request
    marks: List[int] = field(default_factory=list)


def drive_request(monitor, request: ChurnRequest, rec: Recorder,
                  rid: str, tally: Tally) -> None:
    """One request through an unsharded Monitor — the lifecycle of
    ``repro.cluster.workload.drive_monitor``: steps and marks,
    quiescence, epochs until nothing is pending, then the probes.  An
    epoch is ``plan_epoch()`` then ``execute_plan()``, which is exactly
    what ``run_epoch()`` does, with a span around each."""
    network = monitor.network
    with rec.span("bench.request", rid):
        with rec.span("bgp.apply_steps", rid):
            for step in request.steps:
                apply_step(step, network)
            for asn, prefix in request.marks:
                monitor.mark(asn, prefix)
        with rec.span("bgp.quiesce", rid):
            network.run_to_quiescence()
        while monitor.pending():
            with rec.span("audit.plan", rid):
                plan = monitor.plan_epoch()
            with rec.span("audit.execute", rid):
                report = monitor.execute_plan(plan)
            tally.epochs += 1
            tally.deferred += len(report.deferred)
        for probe in request.probes:
            with rec.span("audit.probe", rid):
                monitor.audit_once(
                    probe.asn,
                    probe.prefix,
                    probe.recipient,
                    prover=(
                        probe.prover(monitor.keystore)
                        if probe.prover is not None
                        else None
                    ),
                    max_length=probe.max_length,
                )


def drive_script(monitor, script: Sequence[ChurnRequest], rec: Recorder,
                 label: str) -> Tally:
    """Closed loop, one client: the next request is sent when the
    previous one has all its verdicts in the evidence store."""
    tally = Tally()
    for index, request in enumerate(script):
        started = CLOCK()
        drive_request(monitor, request, rec, f"{label}/{index}", tally)
        tally.latencies.append(CLOCK() - started)
        tally.marks.append(len(monitor.evidence))
    return tally


def _build_monitor(ctx: Context):
    """The unsharded Monitor, with spans round the network build."""
    rec = ctx.rec
    sizes = ctx.sizes

    def network():
        with rec.span("bgp.build", "setup"):
            return build_network(sizes.prefixes)

    spec = replace(cluster_spec(sizes), network=network)
    return spec.build_monitor()


def _time_queries(store, prefix) -> float:
    """Seconds per ``violations()`` + ``by_prefix()`` read of a store:
    median of five batches."""
    batches = []
    for _ in range(5):
        started = CLOCK()
        for _ in range(3):
            store.violations()
            store.by_prefix(prefix)
        batches.append((CLOCK() - started) / 3)
    return median(batches)


def run_monitor_workload(ctx: Context) -> Result:
    """``table-cold`` and ``steady-sweep``: one unsharded Monitor, closed
    loop, one client.  They differ in the script and in whether the cold
    audit belongs to the drive or to set-up."""
    rec = ctx.rec
    sizes = ctx.sizes
    cold = ctx.workload == "table-cold"
    script = (table_cold_script if cold else steady_sweep_script)(
        sizes, ctx.seed
    )

    def setup():
        monitor = _build_monitor(ctx)
        if not cold:
            drive_request(monitor, ChurnRequest(), rec, "setup/0", Tally())
        return monitor

    setup_s, monitor = _timed_setups(ctx, setup, lambda monitor: None)

    store = monitor.evidence
    keystore = monitor.keystore
    before = len(store)
    signs, verifies, hashes = (
        keystore.sign_count, keystore.verify_count, hash_count()
    )
    started = CLOCK()
    with rec.span("bench.drive", "drive"):
        tally = drive_script(monitor, script, rec, ctx.workload)
    wall = CLOCK() - started
    peak = host.tree_rss_mb()

    events = store.events()[before:]
    counts = _trail_counts(events)
    # the keystore's own counters, not the per-event stats: they also
    # see anything signed outside a recorded round
    counts["signatures"] = keystore.sign_count - signs
    counts["verifications"] = keystore.verify_count - verifies
    rates = cycle_rates(
        tally.latencies, [mark - before for mark in tally.marks], events,
        first=0, size=1 if cold else SWEEP_CYCLE,
    )

    result = Result(wall_s=wall, busy_s=rates["cycle_s"])
    result.attempted = len(script)
    _event_checks(result, events, probes=0)
    if not cold:
        result.fail(counts["signatures"], "signature during a warm sweep")
        result.fail(counts["verified"], "fresh round during a warm sweep")
    result.e2e = {
        "setup_s": setup_s,
        "events_per_s": rates["events_per_s"],
        "churn_to_verdict_p50_ms": ms(median(tally.latencies)),
        "goodput_rps": rates["goodput_rps"],
        "peak_rss_mb": peak,
    }
    if cold:
        result.e2e["verified_rounds_per_s"] = rates["verified_rounds_per_s"]
    result.samples = {
        "churn_to_verdict_p50_ms": len(tally.latencies),
        "events_per_s": rates["cycles"],
    }
    result.raw = {"latency_s": tally.latencies}
    _common_layer(result, counts)
    layer = result.layer
    layer["crypto.hashes"] = hash_count() - hashes
    layer["audit.epochs"] = tally.epochs
    layer["audit.deferred"] = tally.deferred
    layer["audit.store_events"] = len(store)
    layer["obs.program_spans"] = len(monitor.tracer.records)
    if ctx.trace:
        label = ctx.workload + "/"
        plan_s = rec.total("audit.plan", request=label)
        execute_s = rec.total("audit.execute", request=label)
        bgp_s = rec.total("bgp.apply_steps", "bgp.quiesce", request=label)
        layer["bgp.build_s"] = rec.total("bgp.build")
        layer["bgp.quiesce_s"] = bgp_s
        layer["bgp.quiesce_share"] = bgp_s / wall
        layer["audit.plan_s"] = plan_s
        layer["audit.execute_s"] = execute_s
        layer["audit.plan_share"] = plan_s / wall
        if cold:
            layer["audit.fresh_round_ms"] = ms(execute_s / counts["verified"])
        else:
            layer["audit.reused_event_us"] = (
                execute_s / counts["reused"] * 1e6
            )
        layer["audit.query_us"] = (
            _time_queries(store, prefixes_of(sizes)[0]) * 1e6
        )
    return result


# -- cluster-durable ---------------------------------------------------------


class Coordinator:
    """The journaled cluster's coordinator in a subprocess of its own,
    so it can be SIGKILLed.  One JSON line per message on its pipes."""

    def __init__(self, config: dict) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "coordinator.py"),
             json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            start_new_session=True,  # its workers die with its group
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        self.ready = self._read()

    def _read(self) -> dict:
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    "coordinator subprocess ended unexpectedly "
                    f"(exit {self.process.wait()})"
                )
            if line.startswith('{"bench"'):
                return json.loads(line)
            # anything else is the program's own logging

    def request(self, index: int) -> dict:
        self.process.stdin.write(f"{index}\n")
        self.process.stdin.flush()
        return self._read()

    def _reap(self) -> None:
        """Wait for the coordinator, then make sure no worker of its
        process group outlives it."""
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        deadline = CLOCK() + 10.0
        while CLOCK() < deadline:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        raise RuntimeError("coordinator's workers did not exit")

    def stop(self) -> None:
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        self._reap()

    def kill(self) -> None:
        self.process.kill()
        self._reap()


def run_cluster_durable(ctx: Context, reference=None) -> Result:
    """The production configuration.  ``reference`` is the evidence
    store of an earlier pass of the same script: given one, the trail is
    compared with it instead of re-driving the unsharded Monitor."""
    rec = ctx.rec
    sizes = ctx.sizes
    script = cluster_script(sizes, ctx.seed)
    probes = sum(len(request.probes) for request in script)
    result = Result()
    undersized = host.cpus() < WORKERS
    base = tempfile.mkdtemp(prefix="journal-", dir=ctx.out_dir)
    spec = cluster_spec(
        sizes, trace=ctx.trace, journal_checkpoint_every=4,
    )
    journals = iter(range(ctx.setups))

    def setup() -> Coordinator:
        with rec.span("cluster.build", "setup"):
            return Coordinator({
                "seed": ctx.seed,
                "seconds": ctx.seconds,
                "smoke": ctx.smoke,
                "trace": ctx.trace,
                "journal": os.path.join(base, f"j{next(journals)}"),
            })

    try:
        setup_s, child = _timed_setups(ctx, setup, Coordinator.stop)
        crashed = os.path.join(base, f"j{ctx.setups - 1}")

        latencies, marks = [], []
        ack = {}
        started = CLOCK()
        with rec.span("bench.drive", "drive"):
            for index in range(sizes.kill_after):
                sent = CLOCK()
                with rec.span("cluster.request", f"{ctx.workload}/{index}"):
                    ack = child.request(index)
                latencies.append(CLOCK() - sent)
                marks.append(ack["events"])
        wall = CLOCK() - started
        peak = host.tree_rss_mb()
        child.kill()

        # recovery: spec.build() on copies of the crashed journal
        copies = [os.path.join(base, f"crash{i}") for i in range(3)]
        for copy in copies:
            shutil.copytree(crashed, copy)
        recoveries = []
        cluster = None
        for copy in copies:
            if cluster is not None:
                cluster.stop()
            sent = CLOCK()
            with rec.span("journal.recover", "recover"):
                cluster = replace(spec, journal=copy).build()
            recoveries.append(CLOCK() - sent)
        try:
            result.fail(
                abs(cluster.recovered_requests - sizes.kill_after),
                "acknowledged request missing after recovery",
            )
            started = CLOCK()
            with rec.span("bench.drive", "drive"):
                for index in range(sizes.kill_after, len(script)):
                    sent = CLOCK()
                    with rec.span(
                        "cluster.request", f"{ctx.workload}/{index}"
                    ):
                        cluster.request(script[index])
                    latencies.append(CLOCK() - sent)
                    marks.append(len(cluster.evidence))
            wall += CLOCK() - started
            peak = max(peak, host.tree_rss_mb())
            snapshot = cluster.snapshot()
            recovery = cluster.metrics.recoveries[0]
            journal = cluster.journal.stats()
            worker_events = dict(cluster.metrics.worker_events)
            if ctx.trace:
                dumped = cluster.recorder.dump(
                    os.path.join(ctx.out_dir, f"{ctx.workload}.program.jsonl"),
                    "end of benchmark run",
                )
                result.layer["obs.program_spans"] = dumped["records"]
        finally:
            sent = CLOCK()
            with rec.span("cluster.stop", "stop"):
                cluster.stop()
            stop_s = CLOCK() - sent

        trail = cluster.evidence
        reference_wall = judge_s = None
        if reference is None:
            monitor = spec.build_monitor()
            # a recorder of its own: the reference drive is outside the
            # timed region, and the only place a probe runs in-process
            inner = Recorder(True)
            sent = CLOCK()
            with rec.span("reference.drive", "reference"):
                drive_script(monitor, script, inner, "reference")
            reference_wall = CLOCK() - sent
            if probes:
                result.layer["audit.probe_ms"] = ms(
                    inner.total("audit.probe") / probes
                )
            reference = monitor.evidence
            # the coordinator's own keystore holds no keys, so its
            # store cannot adjudicate; the reference trail (compared
            # byte for byte below) is judged in its place
            judge_s = _judge_checks(result, reference)
        with rec.span("oracle.compare", "oracle"):
            mismatches = trail_mismatches(trail.events(), reference.events())

        replay_s = None
        if ctx.trace:
            replay_copy = os.path.join(base, "replay")
            shutil.copytree(crashed, replay_copy)
            keystore = spec.build_keystore()
            with Journal(replay_copy) as opened:
                sent = CLOCK()
                with rec.span("journal.replay", "recover"):
                    recover_state(
                        replace(spec, journal=replay_copy), opened,
                        keystore=keystore,
                    )
                replay_s = CLOCK() - sent
    finally:
        shutil.rmtree(base, ignore_errors=True)

    events = trail.events()
    counts = _trail_counts(events)
    result.wall_s = wall
    result.parallel = WORKERS
    result.trail = trail
    result.attempted += len(script)
    _event_checks(result, events, probes)
    result.fail(len(mismatches), "trail mismatch against the reference")
    for line in mismatches[:5]:
        result.problems.append(f"  {line}")
    respawns = ack["respawns"] + len(snapshot["respawns"])
    result.fail(respawns, "worker respawn")
    result.flags["undersized_host"] = undersized

    rates = cycle_rates(latencies, marks, events, first=1, size=CLUSTER_CYCLE)
    # the requests that change every input at A: flaps and restores
    table_wide = [
        latencies[index] for index in range(1, sizes.rounds + 1)
        if (index - 1) % CLUSTER_CYCLE < 2
    ]
    result.busy_s = rates["cycle_s"]
    result.e2e = {
        "setup_s": setup_s,
        "verified_rounds_per_s": rates["verified_rounds_per_s"],
        "events_per_s": rates["events_per_s"],
        "churn_to_verdict_p50_ms": ms(median(table_wide)),
        "goodput_rps": rates["goodput_rps"],
        "recovery_s": median(recoveries),
        "peak_rss_mb": peak,
    }
    result.samples = {
        "churn_to_verdict_p50_ms": len(table_wide),
        "events_per_s": rates["cycles"],
        "recovery_s": len(recoveries),
    }
    result.raw = {"latency_s": latencies, "recovery_s": recoveries}
    _common_layer(result, counts)
    for worker, count in ack["worker_events"].items():
        worker_events[int(worker)] = worker_events.get(int(worker), 0) + count
    appended = ack["journal"]["appended"] + journal["appended"]
    written = ack["journal"]["bytes_written"] + journal["bytes_written"]
    speedup = None
    if reference_wall is not None and not undersized:
        speedup = reference_wall / wall
    elif undersized:
        result.flags["speedup_reason"] = (
            f"host has {host.cpus()} cpu(s) for {WORKERS} workers"
        )
    batches = snapshot["epochs"]["coalesced_batches"]
    result.layer.update({
        "audit.epochs": ack["epochs"] + snapshot["epochs"]["count"],
        "audit.deferred": ack["deferred"] + snapshot["epochs"]["deferred"],
        "audit.store_events": len(trail),
        "audit.adjudicate_ms": (
            ms(judge_s / probes) if judge_s is not None and probes else None
        ),
        "cluster.build_s": child.ready["build_s"],
        "cluster.request_p50_ms": ms(median(latencies)),
        "cluster.request_p90_ms": ms(percentile(latencies, 90)),
        "cluster.speedup_vs_monitor": speedup,
        "cluster.parallel_efficiency": (
            speedup / WORKERS if speedup is not None else None
        ),
        "cluster.worker_events_skew": (
            max(worker_events.values())
            / (sum(worker_events.values()) / len(worker_events))
            if worker_events else None
        ),
        "cluster.coalesced_mean": batches["mean_size"],
        "cluster.respawns": respawns,
        "cluster.stop_s": stop_s,
        "cluster.parity_mismatches": len(mismatches),
        "journal.appended": appended,
        "journal.bytes_written": written,
        "journal.fsyncs": ack["journal"]["fsyncs"] + journal["fsyncs"],
        "journal.wall_s": (
            ack["journal"]["wall_seconds"] + journal["wall_seconds"]
        ),
        "journal.bytes_per_event": written / counts["events"],
        "journal.replay_s": replay_s,
        "journal.replayed_records": recovery["replayed_records"],
        "journal.recover_spawned": recovery["spawned_workers"],
        "journal.recover_adopted": recovery["adopted_workers"],
    })
    return result


# -- serve-mixed -------------------------------------------------------------


@dataclass
class Served:
    """One arrival's outcome, as the generator saw it."""

    op: Op
    lag: float
    latency: Optional[float] = None  # due time -> completion
    queue_wait: Optional[float] = None
    service: Optional[float] = None
    outcome: str = "pending"  # ok | rejected | shed | error

    @property
    def good(self) -> bool:
        return self.outcome == "ok" and self.latency <= self.op.limit


async def _serve_setup(ctx: Context):
    rec = ctx.rec
    sizes = ctx.sizes
    with rec.span("bgp.build", "setup"):
        network = build_network(sizes.prefixes)
    service = VerificationService(
        network,
        shards=WORKERS,
        queue_depth=256,
        batch_max=16,
        parity_sample=0,
        key_bits=sizes.key_bits,
        rng_seed=KEY_SEED,
        trace=ctx.trace,
    )
    service.policy(
        "A", ShortestRoute(), recipients=("B",), name=POLICY_NAME,
        max_length=MAX_LENGTH,
    )
    service.executor.warm()
    with rec.span("serve.start", "setup"):
        await service.start()
    # the cold audit is set-up: the drive starts on a warm cache
    await service.request(ChurnRequest())
    return service


async def _serve_teardown(ctx: Context, service) -> float:
    started = CLOCK()
    with ctx.rec.span("serve.stop", "stop"):
        await service.stop()
    stop_s = CLOCK() - started
    service.executor.backend.close()
    return stop_s


async def _serve_setup_only(ctx: Context) -> float:
    started = CLOCK()
    with ctx.rec.span("bench.setup", "setup"):
        service = await _serve_setup(ctx)
    elapsed = CLOCK() - started
    await _serve_teardown(ctx, service)
    return elapsed


def _epoch_busy(service) -> Tuple[int, float]:
    """(epochs run, seconds spent in them) from the public snapshot."""
    epochs = service.metrics.snapshot()["epochs"]
    wall = epochs["wall"]
    return epochs["count"], (wall["mean_s"] or 0.0) * wall["count"]


async def _serve_drive(ctx: Context, schedule: List[Op], setup_times):
    rec = ctx.rec
    started = CLOCK()
    with rec.span("bench.setup", "setup"):
        service = await _serve_setup(ctx)
    setup_times.append(CLOCK() - started)
    store = service.evidence
    before = len(store)
    epochs0, busy0 = _epoch_busy(service)
    batches0 = len(service.metrics.batch_sizes)
    served: List[Served] = []
    futures = []

    def done(record: Served, due: float, span, future) -> None:
        now = CLOCK()
        rec.close(span)
        error = future.exception()
        if error is None:
            completion = future.result()
            record.outcome = "ok"
            record.latency = now - due
            record.queue_wait = completion.queue_delay
            record.service = completion.service_time
        elif isinstance(error, ShedError):
            record.outcome = "shed"
        else:
            record.outcome = "error"

    with rec.span("bench.drive", "drive") as drive:
        parent = drive["id"] if drive else None
        origin = CLOCK() + 0.05
        for index, op in enumerate(schedule):
            due = origin + op.offset
            delay = due - CLOCK()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Served(op=op, lag=CLOCK() - due)
            served.append(record)
            span = rec.open(
                "serve.request", f"{ctx.workload}/{index}", parent
            )
            try:
                future = service.submit_nowait(op.request)
            except AdmissionError:
                rec.close(span)
                record.outcome = "rejected"
                continue
            future.add_done_callback(
                functools.partial(done, record, due, span)
            )
            futures.append(future)
        last_due = origin + schedule[-1].offset
        drain = rec.open("serve.drain", "drain", parent)
        await service.drain()
        await asyncio.gather(*futures, return_exceptions=True)
        rec.close(drain)
        drained = CLOCK()
    peak = host.tree_rss_mb()
    epochs1, busy1 = _epoch_busy(service)
    snapshot = service.metrics.snapshot()
    batches = service.metrics.batch_sizes[batches0:]
    program_spans = None
    if ctx.trace:
        program_spans = service.recorder.dump(
            os.path.join(ctx.out_dir, f"{ctx.workload}.program.jsonl"),
            "end of benchmark run",
        )["records"]
    stop_s = await _serve_teardown(ctx, service)
    return {
        "served": served,
        "store": store,
        "events": store.events()[before:],
        "wall": drained - origin,
        "drain_s": drained - last_due,
        "epochs": epochs1 - epochs0,
        "epoch_busy_s": busy1 - busy0,
        "batches": batches,
        "snapshot": snapshot,
        "peak": peak,
        "stop_s": stop_s,
        "program_spans": program_spans,
    }


def run_serve_mixed(ctx: Context) -> Result:
    """Open loop: one asyncio generator task in the service's process
    sends on schedule whether or not earlier requests have completed.
    Latency is timed from each request's due time."""
    sizes = ctx.sizes
    schedule = serve_schedule(sizes, ctx.seed)
    setup_times = [
        asyncio.run(_serve_setup_only(ctx)) for _ in range(ctx.setups - 1)
    ]
    run = asyncio.run(_serve_drive(ctx, schedule, setup_times))
    served: List[Served] = run["served"]
    wall = run["wall"]
    events = run["events"]
    counts = _trail_counts(events)

    def latencies(*kinds: str) -> List[float]:
        return [
            r.latency for r in served
            if r.op.kind in kinds and r.outcome == "ok"
        ]

    outcomes = [r.outcome for r in served]
    probes = sum(1 for r in served if r.op.kind == "probe" and r.outcome == "ok")
    result = Result(
        wall_s=wall, parallel=WORKERS, busy_s=run["epoch_busy_s"],
    )
    result.attempted = len(served)
    for outcome in ("rejected", "shed", "error"):
        result.fail(outcomes.count(outcome), f"request {outcome}")
    _event_checks(result, events, probes)
    _judge_checks(result, run["store"])

    flaps = latencies("flap")
    queries = latencies("query")
    churn = latencies("flap", "probe", "reorig")
    waits = [r.queue_wait for r in served if r.outcome == "ok"]
    lags = [r.lag for r in served]
    result.e2e = {
        "setup_s": median(setup_times),
        "events_per_s": counts["events"] / wall,
        "churn_to_verdict_p50_ms": ms(median(flaps)),
        "query_p50_ms": ms(median(queries)),
        "goodput_rps": sum(1 for r in served if r.good) / wall,
        "peak_rss_mb": run["peak"],
    }
    result.samples = {
        "churn_to_verdict_p50_ms": len(flaps),
        "query_p50_ms": len(queries),
    }
    result.raw = {
        "kind": [r.op.kind for r in served],
        "offset_s": [r.op.offset for r in served],
        "latency_s": [r.latency for r in served],
        "queue_wait_s": [r.queue_wait for r in served],
        "service_s": [r.service for r in served],
    }
    _common_layer(result, counts)
    requests = run["snapshot"]["requests"]
    load = [
        count for count in run["snapshot"]["placement"]["load"].values()
    ]
    lag_p90 = ms(percentile(lags, 90))
    result.flags["loadgen_valid"] = lag_p90 <= 10.0
    result.layer.update({
        "audit.epochs": run["epochs"],
        "audit.deferred": run["snapshot"]["epochs"]["deferred"],
        "audit.store_events": len(run["store"]),
        "serve.flap_p50_ms": ms(median(flaps)),
        "serve.probe_p50_ms": ms(median(latencies("probe"))),
        "serve.reorig_p50_ms": ms(median(latencies("reorig"))),
        "serve.adjudicate_p50_ms": ms(median(latencies("adjudicate"))),
        "serve.churn_p90_ms": ms(percentile(churn, 90)),
        "serve.query_p90_ms": ms(percentile(queries, 90)),
        "serve.queue_wait_p50_ms": ms(median(waits)),
        "serve.queue_wait_p90_ms": ms(percentile(waits, 90)),
        "serve.epochs": run["epochs"],
        "serve.coalesced_mean": (
            sum(run["batches"]) / len(run["batches"])
            if run["batches"] else None
        ),
        "serve.utilisation": run["epoch_busy_s"] / wall,
        "serve.rejected": sum(r["rejected"] for r in requests.values()),
        "serve.shed": sum(r["shed"] for r in requests.values()),
        "serve.dropped": sum(r["dropped"] for r in requests.values()),
        "serve.shard_skew": (
            max(load) / (sum(load) / len(load)) if load else None
        ),
        "serve.drain_s": run["drain_s"],
        "serve.stop_s": run["stop_s"],
        "loadgen.lag_p90_ms": lag_p90,
        "loadgen.lag_max_ms": ms(max(lags)),
        "loadgen.offered": len(served),
        "obs.program_spans": run["program_spans"],
    })
    if ctx.trace:
        result.layer["bgp.build_s"] = ctx.rec.total("bgp.build")
        result.layer["serve.start_s"] = ctx.rec.total("serve.start")
    return result


RUNNERS = {
    "table-cold": run_monitor_workload,
    "steady-sweep": run_monitor_workload,
    "cluster-durable": run_cluster_durable,
    "serve-mixed": run_serve_mixed,
}
