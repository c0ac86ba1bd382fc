"""The control-plane CLI: ``python -m repro.control``.

Usage::

    python -m repro.control --describe
    python -m repro.control --walls 0.1,0.1,2.0,2.5,2.5,0.1
    python -m repro.control --queue 0.1,0.6,0.9,0.9,0.2 \\
        --queue-high 0.5 --json decisions.json

An offline **controller rehearsal**: replay a synthetic signal trace
(per-epoch wall seconds, queue fractions) through a
:class:`~repro.control.controller.Controller` with the knobs given on
the command line, and print every decision it would have taken — the
same deterministic ``tick()`` the serving layer and the cluster run at
their epoch boundaries, minus the service.  Use it to tune the latency
bound and queue threshold against an observed trace before turning the
controller on in production, or ``--describe`` to print the resolved
policy knobs.

Exit status (the shared :mod:`repro.util.cli` contract): 0 on success
(decisions are data, not failures), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import log as obs_log
from repro.util.cli import EXIT_OK, usage_error, write_json

from repro.control.controller import Controller, ControlPolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.control",
        description="Replay a synthetic signal trace through the "
        "control plane and print the decisions it would take.",
    )
    parser.add_argument("--describe", action="store_true",
                        help="print the resolved policy knobs and exit")
    parser.add_argument("--walls", default=None, metavar="W1,W2,...",
                        help="per-epoch wall seconds to replay")
    parser.add_argument("--queue", default=None, metavar="F1,F2,...",
                        help="per-epoch queue-depth fractions in [0,1]")
    parser.add_argument("--window", type=int, default=32, metavar="N",
                        help="signal ring-buffer window (default: 32)")
    parser.add_argument("--latency-bound", type=float, default=1.0,
                        metavar="S", help="epoch-wall percentile bound "
                        "(default: 1.0)")
    parser.add_argument("--latency-percentile", type=float, default=90.0,
                        metavar="P", help="which wall percentile the "
                        "bound applies to (default: 90)")
    parser.add_argument("--queue-high", type=float, default=0.5,
                        metavar="F", help="queue fraction where shedding "
                        "pressure starts (default: 0.5)")
    parser.add_argument("--stale-after", type=float, default=0.25,
                        metavar="S", help="dispatch staleness bound "
                        "pushed to admission (default: 0.25)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the controller snapshot "
                        "(policy, decisions, signals) here")
    parser.add_argument("--log-json", action="store_true",
                        help="emit progress lines as JSON objects "
                        "(level/component/message fields)")
    return parser


def parse_trace(args):
    """Parse the --walls/--queue trace into per-epoch rows."""
    walls = queue = None
    if args.walls is not None:
        walls = [float(w) for w in args.walls.split(",")]
    if args.queue is not None:
        queue = [float(q) for q in args.queue.split(",")]
        if any(not 0 <= q <= 1 for q in queue):
            raise ValueError("--queue fractions must be in [0, 1]")
    epochs = max(
        len(trace) for trace in (walls, queue) if trace is not None
    )
    return epochs, walls, queue


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs_log.configure_logging(json_mode=args.log_json)
    try:
        policy = ControlPolicy(
            window=args.window,
            latency_percentile=args.latency_percentile,
            latency_bound=args.latency_bound,
            queue_high=args.queue_high,
            stale_after=args.stale_after,
        )
    except ValueError as exc:
        return usage_error(str(exc))
    if args.describe:
        print(json.dumps(policy.describe(), indent=2, sort_keys=True))
        return EXIT_OK
    if args.walls is None and args.queue is None:
        return usage_error(
            "give a trace (--walls / --queue) or --describe"
        )
    try:
        epochs, walls, queue = parse_trace(args)
    except ValueError as exc:
        return usage_error(str(exc))

    controller = Controller(policy)
    for epoch in range(epochs):
        if queue is not None and epoch < len(queue):
            controller.observe_queue_depth(
                int(queue[epoch] * 100), 100
            )
        controller.observe_epoch(
            wall_seconds=(
                walls[epoch]
                if walls is not None and epoch < len(walls)
                else 0.0
            ),
        )
        for decision in controller.tick():
            obs_log.emit(
                "control",
                f"tick {decision.tick}: {decision.action} "
                f"— {decision.reason}",
                epoch=epoch,
                tick=decision.tick,
                action=decision.action,
            )
    snapshot = controller.snapshot()
    obs_log.emit(
        "control",
        f"replayed {epochs} epoch(s): "
        f"{len(controller.decisions)} decision(s), final severity "
        f"{controller.severity:.3f}",
        epochs=epochs,
        decisions=len(controller.decisions),
        severity=round(controller.severity, 6),
    )
    if args.json:
        write_json(args.json, snapshot, tag="control",
                   what="controller snapshot")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
