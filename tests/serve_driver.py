"""Test-only drivers: a ``VerificationService`` built from a
``ClusterSpec``, and one under a generated schedule (``test_serve.py``)."""

import asyncio

from repro.cluster import AdmissionError
from repro.cluster.workload import serve_spec
from repro.pvr.scenarios import serve_prefixes
from repro.serve import (
    LoadProfile,
    ServeWorkload,
    VerificationService,
    build_schedule,
    run_open_loop,
)


def service_for(spec, **overrides):
    """The asyncio door over what ``spec`` describes: its network and
    policies, and every field the service has a keyword for."""
    options = dict(
        shards=spec.workers,
        transport=spec.transport,
        queue_depth=spec.queue_depth,
        rng_seed=spec.rng_seed,
        key_bits=spec.key_bits,
        max_events=spec.max_events,
        parity_sample=spec.parity_sample,
        batch_max=spec.coalesce_max,
        ledger=spec.ledger,
        trace=spec.trace,
    )
    options.update(overrides)
    service = VerificationService(spec.network(), **options)
    for policy in spec.policies:
        policy.install(service.monitor)
    return service


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
    service_options.setdefault("transport", None)  # the service's default
    service = service_for(
        serve_spec(prefixes, workers=shards, rng_seed=seed, queue_depth=256),
        **service_options,
    )
    schedule = build_schedule(
        LoadProfile(
            requests=requests, violation_every=violation_every, seed=seed
        ),
        ServeWorkload(
            prefixes=serve_prefixes(prefixes),
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
