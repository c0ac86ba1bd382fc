"""End-to-end benchmark of the PVR audit stack: one command, every metric.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` runs one workload in this process and prints one JSON
  object as its last line — the form the driver's contract
  (``BENCHMARK.json``) asks for.  ``--trace 0`` yields the end-to-end
  metrics, measured with every tracer off; ``--trace 1`` runs the
  workload untraced and then traced, adds the microdrivers, and yields
  the per-layer metrics (0 where a layer is not on the workload's path).

* ``python3 benchmarks/e2e/run.py [--seed N] [--repeat K] [--e2e-only]
  [--out FILE]`` runs the whole suite: every workload ``K`` times in a
  subprocess of its own (so peak memory is per workload), then once
  more traced, and prints every metric by name with its unit, the
  per-layer budget table, and the spread of each end-to-end metric.

Either form exits non-zero if any output of the program is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 2011
SCHEMA = "repro.bench-e2e/1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None,
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="load-generator seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the request counts are sized "
                        "for (default: the frozen reference length)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced pass, "
                        "microdrivers and per-layer metrics")
    parser.add_argument("--detail", default=None, metavar="FILE",
                        help="with --workload: also write the full "
                        "result (samples, flags, budget) here")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="suite: untraced runs per workload")
    parser.add_argument("--e2e-only", action="store_true",
                        help="suite: skip the traced pass and the "
                        "microdrivers (for paired A/B loops)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="suite: write the JSON report here")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (P=4, 512-bit keys); the output "
                        "is flagged and never comparable")
    return parser


# -- one workload, in this process -------------------------------------------


def _check_frozen(workload, seconds, smoke, layer, result) -> None:
    """Event counts of the scripted workloads do not depend on the seed;
    at the frozen run length they must equal the recorded values."""
    with open(os.path.join(HERE, "frozen.json"), encoding="utf-8") as handle:
        frozen = json.load(handle)
    expected = frozen["workloads"].get(workload)
    if smoke or expected is None or seconds != frozen["seconds"]:
        return
    for name, value in expected.items():
        if layer.get(name) != value:
            result.fail(1, f"{name} is {layer.get(name)}, frozen at {value}")


def measure(args) -> dict:
    """Run ``args.workload`` and return the full result document."""
    import host
    from metrics import COUNT_METRICS
    from spans import layer_budget, self_times
    from workloads import (
        REFERENCE_SECONDS, RUNNERS, Context, run_cluster_durable,
    )

    seconds = args.seconds if args.seconds is not None else REFERENCE_SECONDS
    os.makedirs(OUT, exist_ok=True)
    common = dict(
        workload=args.workload, seed=args.seed, smoke=args.smoke,
        out_dir=OUT,
        # a traced run makes two passes, tracers off then on, and shares
        # its run length between them
        seconds=seconds / 2 if args.trace else seconds,
    )
    runner = RUNNERS[args.workload]
    # the end-to-end pass: every tracer off, set-up timed three times
    plain = runner(Context(trace=False, setups=1 if args.trace else 3,
                           **common))
    layer = dict(plain.layer)
    if not args.trace:
        _check_frozen(args.workload, seconds, args.smoke, layer, plain)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "e2e": plain.e2e,
        "samples": plain.samples,
        "raw": plain.raw,
        "flags": plain.flags,
        "host": None,
        # the counters of the untraced pass; a traced run adds the rest
        "layer": layer,
        "budget": None,
    }
    attempted, failed = plain.attempted, plain.failed
    problems = list(plain.problems)
    if args.trace:
        from micro import run_micro

        ctx = Context(trace=True, setups=1, **common)
        if args.workload == "cluster-durable":
            traced = run_cluster_durable(ctx, reference=plain.trail)
        else:
            traced = runner(ctx)
        attempted += traced.attempted
        failed += traced.failed
        problems += [f"traced pass: {p}" for p in traced.problems]
        if args.workload != "serve-mixed":
            # counts made by the program repeat exactly, traced or not
            for name in COUNT_METRICS:
                if traced.layer.get(name) != plain.layer.get(name):
                    failed += 1
                    problems.append(
                        f"{name} differs between passes: "
                        f"{plain.layer.get(name)} vs {traced.layer.get(name)}"
                    )
        layer.update(
            {k: v for k, v in traced.layer.items() if v is not None}
        )
        layer["obs.trace_overhead_fraction"] = (
            traced.busy_s / plain.busy_s - 1.0
        )
        ctx.rec.dump(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
        own = self_times(ctx.rec.spans)
        if any(value < -1e-9 for value in own.values()):
            failed += 1
            problems.append("a span's children cover more than the span")
        document["budget"] = layer_budget(ctx.rec.spans)

        layer.update(run_micro(
            ctx.sizes.key_bits,
            0.01 if args.smoke else min(0.2, seconds / 50), OUT,
        ))
        modexp_s = (
            layer["crypto.signatures"] * layer["crypto.rsa_sign_us"]
            + layer["crypto.verifications"] * layer["crypto.rsa_verify_us"]
        ) / 1e6
        layer["crypto.modexp_s"] = modexp_s
        layer["crypto.modexp_share"] = modexp_s / (
            plain.wall_s * min(plain.parallel, host.cpus())
        )
        described = host.describe()
        document["host"] = described
        layer["host.cpus"] = described["cpus"]
        layer["host.python"] = (
            sys.version_info[0] * 100 + sys.version_info[1]
        )
        layer["host.calibration_s"] = described["calibration_s"]
    document.update(
        correct=failed == 0, attempted=attempted, failed=failed,
        problems=problems,
    )
    document["e2e"]["failed_fraction"] = failed / attempted
    return document


def run_workload(args) -> int:
    from metrics import CONTRACT_E2E, E2E, WORKLOADS, contract_per_layer

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    document = measure(args)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    if args.trace:
        values = dict(document["layer"])
        # the end-to-end metrics the contract cannot gate ride along
        values.update(document["e2e"])
        listed = contract_per_layer()
    else:
        values = document["e2e"]
        listed = [
            (name, unit, better) for name, unit, better, _b, _on in E2E
            if name in CONTRACT_E2E
        ]
    metrics = {}
    for name, unit, _better in listed:
        value = values.get(name)
        print(f"{args.workload:16} {name:36} "
              f"{'n/a' if value is None else format(value, '.6g'):>14} {unit}")
        # the contract wants a number for every metric on every
        # workload: a layer that is not on this workload's path did 0
        metrics[name] = {"value": 0 if value is None else value,
                         "unit": unit}
    for problem in document["problems"]:
        print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0 if document["correct"] else 1


# -- the whole suite ---------------------------------------------------------


def _spawn(args, workload: str, trace: int, tag: str) -> dict:
    """One workload run in a subprocess of its own."""
    detail = os.path.join(OUT, f"{workload}.{tag}.json")
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(trace), "--detail", detail,
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(
            f"{workload} run exited {done.returncode}:\n{done.stdout}"
        )
    with open(detail, encoding="utf-8") as handle:
        return json.load(handle)


def _table(title, headers, rows) -> None:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    print(f"\n{title}")
    for row in [list(map(str, headers)), *rows]:
        print("  " + "  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ))


def _fmt(value) -> str:
    return "n/a" if value is None else format(value, ".5g")


def run_suite(args) -> int:
    from metrics import E2E, PER_LAYER, WORKLOADS, median

    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    report = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": None,
        "host": None,
        "undersized_host": False,
        "workloads": {},
    }
    failed = 0
    for workload in WORKLOADS:
        runs = [
            _spawn(args, workload, 0, f"run{index}")
            for index in range(args.repeat)
        ]
        report["seconds"] = runs[0]["seconds"]
        entry = {
            "why": WORKLOADS[workload],
            "e2e": {},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": [p for r in runs for p in r["problems"]],
            "flags": runs[0]["flags"],
            "per_layer": None,
            "budget": None,
        }
        for name, unit, better, bound, _on in E2E:
            values = [r["e2e"].get(name) for r in runs]
            defined = [v for v in values if v is not None]
            entry["e2e"][name] = {
                "unit": unit,
                "better": better,
                "bound": bound,
                "values": values,
                "median": median(defined),
                "min": min(defined, default=None),
                "max": max(defined, default=None),
                "samples": runs[0]["samples"].get(name),
            }
        if not args.e2e_only:
            traced = _spawn(args, workload, 1, "traced")
            entry["per_layer"] = {
                name: traced["layer"].get(name) for name, _u, _b in PER_LAYER
            }
            entry["budget"] = traced["budget"]
            entry["flags"].update(traced["flags"])
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["problems"] += traced["problems"]
            report["host"] = traced["host"]
        if entry["flags"].get("undersized_host"):
            report["undersized_host"] = True
        failed += entry["failed"]
        report["workloads"][workload] = entry

    names = list(report["workloads"])
    _table(
        f"end-to-end metrics (median of {args.repeat}; tracers off)"
        + ("  ** SMOKE: toy sizes, not comparable **" if args.smoke else ""),
        ["metric", "unit", *names],
        [
            [name, unit, *(
                _fmt(report["workloads"][w]["e2e"][name]["median"])
                for w in names
            )]
            for name, unit, _b, _bound, _on in E2E
        ],
    )
    if args.repeat > 1:
        _table(
            "spread of each end-to-end metric: (max - min) / median",
            ["metric", *names],
            [
                [name, *(
                    _fmt(
                        (e["max"] - e["min"]) / e["median"]
                        if e["median"] else None
                    )
                    for e in (
                        report["workloads"][w]["e2e"][name] for w in names
                    )
                )]
                for name, _u, _b, _bound, _on in E2E
            ],
        )
    if not args.e2e_only:
        _table(
            "per-layer metrics (traced pass and microdrivers)",
            ["metric", "unit", *names],
            [
                [name, unit, *(
                    _fmt(report["workloads"][w]["per_layer"].get(name))
                    for w in names
                )]
                for name, unit, _better in PER_LAYER
            ],
        )
        for workload in names:
            _table(
                f"layer budget of the {workload} drive "
                f"(from the benchmark's own spans)",
                ["span", "layer", "calls", "busy s", "self s",
                 "share of drive"],
                [
                    [row["name"], row["layer"], row["calls"],
                     _fmt(row["busy_s"]),
                     _fmt(row["self_s"]), f"{row['share']:.1%}"]
                    for row in report["workloads"][workload]["budget"]
                ],
            )
        print(f"\nhost: {json.dumps(report['host'])}")
    for workload in names:
        entry = report["workloads"][workload]
        flags = {k: v for k, v in entry["flags"].items() if v not in (None,)}
        if flags:
            print(f"flags {workload}: {json.dumps(flags)}")
        for problem in entry["problems"]:
            print(f"FAIL {workload}: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"report written to {args.out}")
    print("\n" + ("OK: every output correct" if not failed
                  else f"FAILED: {failed} operation(s) wrong"))
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program is not here: {SRC}/repro is missing — run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    # the checkout's own sources, ahead of any installed copy
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.workload is not None:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
