"""Test-only driver: one ``VerificationService`` under a generated
schedule (``test_serve.py``)."""

import asyncio

from repro.cluster import AdmissionError
from repro.promises.spec import ShortestRoute
from repro.pvr.scenarios import serve_network
from repro.serve import (
    LoadProfile,
    ServeWorkload,
    VerificationService,
    build_schedule,
    run_open_loop,
)


def run_workload(
    *, shards, requests, prefixes=4, seed=7, burst=None, violation_every=0,
    **service_options,
):
    """Build the serving scenario's service, fire a generated schedule
    at it and return ``(service, errors)`` — the stopped service and
    every exception a request future raised.  With ``burst`` the
    schedule goes in fixed-size bursts, each awaited, so coalescing
    (hence epoch boundaries, event counts and reuse) is a pure function
    of the schedule; without, open-loop and back-to-back."""
    network, prefix_list = serve_network(prefixes)
    service = VerificationService(
        network, shards=shards, rng_seed=seed, queue_depth=256,
        **service_options,
    )
    service.policy(
        "A", ShortestRoute(), recipients=("B",), name="A/min->B", max_length=8,
    )
    schedule = build_schedule(
        LoadProfile(
            requests=requests, violation_every=violation_every, seed=seed
        ),
        ServeWorkload(
            prefixes=prefix_list,
            flappable=(("O", "N2"), ("X", "N1")),
            violator=("A", "B") if violation_every else None,
        ),
    )

    async def drive():
        await service.start()
        try:
            if burst is None:
                report = await run_open_loop(service, schedule, time_scale=0.0)
                return report.errors
            errors = []
            for start in range(0, len(schedule), burst):
                futures = []
                for op in schedule[start:start + burst]:
                    try:
                        futures.append(service.submit_nowait(op.request))
                    except AdmissionError:
                        pass  # refused at the door: the metrics count it
                await service.drain()
                settled = await asyncio.gather(*futures, return_exceptions=True)
                errors += [r for r in settled if isinstance(r, BaseException)]
            return errors
        finally:
            await service.stop()

    return service, asyncio.run(drive())
