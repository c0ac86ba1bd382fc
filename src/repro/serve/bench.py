"""Workload driver for the serving layer.

One synchronous entry point, :func:`run_workload`, builds the serving
scenario (:func:`repro.pvr.scenarios.serve_network`), starts a
:class:`~repro.serve.service.VerificationService`, drives a
deterministic generated workload, and returns the service, the load
report and the drive's wall time — what ``tests/test_serve.py`` and
``tests/test_control.py`` assert on.  Scripted (bursted) mode keeps
epoch boundaries — hence event and reuse counts — a pure function of
the schedule; open-loop mode trades that for real arrival-time
behaviour and meaningful tail latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional

from repro.promises.spec import ShortestRoute

from repro.serve.loadgen import (
    LoadProfile,
    LoadReport,
    ServeWorkload,
    SimnetGateway,
    build_schedule,
    run_open_loop,
    run_scripted,
)
from repro.serve.service import VerificationService

__all__ = ["BenchRun", "run_workload"]


@dataclass
class BenchRun:
    """One driven workload: the service (with its metrics and evidence
    trail), the load report, and the drive's wall time."""

    service: VerificationService
    report: LoadReport
    wall_seconds: float

    @property
    def snapshot(self) -> dict:
        return self.service.metrics.snapshot()


def run_workload(
    *,
    shards: int,
    prefixes: int = 8,
    requests: int = 32,
    seed: int = 7,
    key_bits: int = 512,
    burst: Optional[int] = None,
    rate: Optional[float] = None,
    violation_every: int = 0,
    parity_sample: int = 0,
    queue_depth: int = 256,
    batch_max: int = 16,
    simnet_latency: Optional[float] = None,
    drop_rate: float = 0.0,
    backend: object = None,
    admission: object = None,
) -> BenchRun:
    """Drive one generated workload end to end, synchronously.

    ``burst`` selects the scripted (deterministic) driver; otherwise the
    open-loop driver runs, honoring ``rate`` on the wall clock.
    ``admission`` passes through to the service.
    """
    from repro.pvr.scenarios import serve_network

    network, prefix_list = serve_network(prefixes)
    service = VerificationService(
        network,
        shards=shards,
        admission=admission,
        key_bits=key_bits,
        rng_seed=seed,
        queue_depth=queue_depth,
        batch_max=batch_max,
        parity_sample=parity_sample,
        backend=backend,
    )
    service.policy(
        "A", ShortestRoute(), recipients=("B",),
        name="A/min->B", max_length=8,
    )
    profile = LoadProfile(
        requests=requests,
        rate=rate,
        violation_every=violation_every,
        seed=seed,
    )
    workload = ServeWorkload(
        prefixes=prefix_list,
        flappable=(("O", "N2"), ("X", "N1")),
        violator=("A", "B") if violation_every else None,
    )
    schedule = build_schedule(profile, workload)
    gateway = None
    if simnet_latency is not None or drop_rate > 0:
        gateway = SimnetGateway(
            latency=simnet_latency if simnet_latency is not None else 0.02,
            drop_rate=drop_rate,
            seed=seed,
        )

    async def drive() -> LoadReport:
        await service.start()
        try:
            if burst is not None:
                return await run_scripted(service, schedule, burst=burst)
            return await run_open_loop(
                service,
                schedule,
                gateway=gateway,
                time_scale=1.0 if rate is not None else 0.0,
            )
        finally:
            await service.stop()

    # spawn the worker pool before the timed region: the one-time
    # process fork cost is shared infrastructure, not workload — with
    # it inside, a sharded run is charged hundreds of ms the serial
    # run never pays and the recorded speedup is biased downward
    service.executor.warm()
    started = time.perf_counter()
    report = asyncio.run(drive())
    wall = time.perf_counter() - started
    return BenchRun(service=service, report=report, wall_seconds=wall)

