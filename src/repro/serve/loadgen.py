"""Open-loop load generation for the verification service.

An *open-loop* generator fires requests at scheduled arrival times and
does not wait for responses — so a slow service accumulates queue depth
and rejections instead of silently throttling the workload, which is
the behaviour tail-latency numbers are meaningful for (closed-loop
generators hide exactly the overload they should be measuring).

The workload is a deterministic *schedule* built up front from a seeded
:class:`~repro.util.rng.DeterministicRandom`: mixed request types
(churn bursts, query storms, adjudication), Poisson arrivals at a
target rate, **hot-prefix skew** — churn concentrates on a Zipf-ranked
head of the prefix set, so some shards run hot while others idle — and
periodic **violation injection** (an import-policy flip that makes the
monitored AS *honestly* prefer a longer route, violating its
shortest-route promise on the wire, no Byzantine prover object needed).
:func:`run_open_loop` is the real-time asyncio driver (the CLI).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix
from repro.cluster.requests import (
    AdjudicateRequest,
    AdmissionError,
    AuditProbe,
    ChurnRequest,
    QueryRequest,
)
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.scenarios import bounce_session, reoriginate_origin
from repro.util.rng import DeterministicRandom

from repro.serve.service import VerificationService

__all__ = [
    "LoadProfile",
    "LoadReport",
    "Op",
    "ServeWorkload",
    "ZipfSampler",
    "build_schedule",
    "run_open_loop",
]


class ZipfSampler:
    """Rank-weighted sampling: rank r drawn with weight 1/r^s."""

    def __init__(self, ranks: int, s: float = 1.1) -> None:
        if ranks < 1:
            raise ValueError("need at least one rank")
        weights = [1.0 / (r ** s) for r in range(1, ranks + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def sample(self, rng: DeterministicRandom) -> int:
        """A 0-based rank (0 is the hot head)."""
        u = rng.random()
        for rank, edge in enumerate(self._cumulative):
            if u <= edge:
                return rank
        return len(self._cumulative) - 1


@dataclass(frozen=True)
class LoadProfile:
    """One workload's shape, fully deterministic given ``seed``."""

    requests: int = 100
    #: target arrival rate (req/s) for the open-loop driver; ``None``
    #: fires back-to-back
    rate: Optional[float] = None
    #: request mix weights
    churn_weight: float = 0.5
    query_weight: float = 0.45
    adjudicate_weight: float = 0.05
    #: Zipf skew of churn across the prefix set (higher = hotter head)
    zipf_s: float = 1.1
    #: inject one promise violation every N churn requests (0 = never)
    violation_every: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive or None, got {self.rate}")


@dataclass(frozen=True)
class Op:
    """One scheduled request: arrival offset plus its payload."""

    at: float
    request: object

    @property
    def kind(self) -> str:
        return self.request.kind


def _violation_probe(
    asn: str, prefix: Prefix, recipient: str
) -> ChurnRequest:
    """A churn request whose only payload is a Byzantine audit probe:
    the monitored AS is impersonated by a
    :class:`~repro.pvr.adversary.LongerRouteProver` (the paper's
    canonical violation — export the longest route while committing
    honestly), so the pipeline records a genuine violation with
    judge-valid evidence."""
    return ChurnRequest(
        probes=(
            AuditProbe(
                asn=asn,
                prefix=prefix,
                recipient=recipient,
                prover=LongerRouteProver,
            ),
        ),
    )


@dataclass
class ServeWorkload:
    """What the generator can touch on the serving scenario's network.

    ``prefixes`` are Zipf-ranked (index 0 is the hot head);
    ``flappable`` are (a, b) sessions safe to bounce; ``violator`` is
    the (monitored AS, recipient) pair the Byzantine violation probes
    target.
    """

    prefixes: Sequence[Prefix]
    flappable: Sequence[Tuple[str, str]] = ()
    violator: Optional[Tuple[str, str]] = None
    hot_asn: str = "A"


def build_schedule(
    profile: LoadProfile, workload: ServeWorkload
) -> List[Op]:
    """The deterministic request schedule for one run."""
    rng = DeterministicRandom(profile.seed).fork("serve-loadgen")
    zipf = ZipfSampler(len(workload.prefixes), profile.zipf_s)
    kinds = ["churn", "query", "adjudicate"]
    weights = [
        profile.churn_weight,
        profile.query_weight,
        profile.adjudicate_weight,
    ]
    total = sum(weights)
    if total <= 0:
        raise ValueError("at least one mix weight must be positive")
    edges = []
    acc = 0.0
    for w in weights:
        acc += w / total
        edges.append(acc)

    ops: List[Op] = []
    at = 0.0
    churn_count = 0
    for _ in range(profile.requests):
        if profile.rate is not None:
            # Poisson arrivals: exponential inter-arrival gaps
            at += -math.log(1.0 - rng.random()) / profile.rate
        u = rng.random()
        # same float-rounding fallback as ZipfSampler: a cumulative sum
        # can land just below 1.0, so a high draw picks the last kind
        kind = kinds[-1]
        for i, edge in enumerate(edges):
            if u <= edge:
                kind = kinds[i]
                break
        if kind == "churn":
            churn_count += 1
            prefix = workload.prefixes[zipf.sample(rng)]
            if (
                profile.violation_every
                and workload.violator is not None
                and churn_count % profile.violation_every == 0
            ):
                asn, recipient = workload.violator
                ops.append(Op(at, _violation_probe(asn, prefix, recipient)))
            elif workload.flappable and rng.random() < 0.5:
                a, b = rng.choice(list(workload.flappable))
                # steps ride as picklable (builder, args) pairs, so the
                # same schedule drives the in-process service and the
                # multi-process cluster
                ops.append(Op(at, ChurnRequest(
                    steps=((bounce_session, (a, b)),),
                )))
            else:
                ops.append(Op(at, ChurnRequest(
                    steps=((reoriginate_origin, (prefix,)),),
                )))
        elif kind == "query":
            what = rng.choice(["summary", "violations", "events"])
            if what == "events":
                ops.append(Op(at, QueryRequest(
                    what="events",
                    asn=workload.hot_asn,
                    prefix=workload.prefixes[zipf.sample(rng)],
                )))
            else:
                ops.append(Op(at, QueryRequest(what=what)))
        else:
            ops.append(Op(at, AdjudicateRequest()))
    return ops


@dataclass
class LoadReport:
    """What one load-generation run observed."""

    offered: int = 0
    delivered: int = 0
    rejected: int = 0
    completions: List[object] = field(default_factory=list)
    errors: List[BaseException] = field(default_factory=list)


async def run_open_loop(
    service: VerificationService,
    ops: Sequence[Op],
    *,
    time_scale: float = 1.0,
) -> LoadReport:
    """Fire the schedule open-loop against a started service.

    Arrival times are honored on the wall clock (scaled by
    ``time_scale``; pass 0 to fire as fast as the loop allows).
    Rejections are counted and *not* retried — open loop means the
    schedule never adapts to the service.
    """
    report = LoadReport()
    futures = []
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    for op in ops:
        if time_scale > 0:
            delay = t0 + op.at * time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                # yield so the dispatcher can interleave with admission
                await asyncio.sleep(0)
        else:
            await asyncio.sleep(0)
        report.offered += 1
        try:
            futures.append(service.submit_nowait(op.request))
            report.delivered += 1
        except AdmissionError:
            report.rejected += 1
    await service.drain()
    for future in futures:
        try:
            report.completions.append(await future)
        except Exception as exc:
            report.errors.append(exc)
    return report
