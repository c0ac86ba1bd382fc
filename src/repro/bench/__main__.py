"""The benchmark CLI: ``python -m repro.bench``.

Usage::

    python -m repro.bench --quick --out bench.json
    python -m repro.bench --list
    python -m repro.bench --only fig1-minimum-round --only sec38-batching
    python -m repro.bench --quick --out bench.json \\
        --baseline benchmarks/baseline.json --gate 2.5

Exit status: 0 on success, 1 when the baseline gate fails, 2 on bad
usage (unknown experiment, invalid baseline file).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import registry, runner
from repro.bench.tables import print_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the registered benchmark experiments and emit a "
        "schema-versioned JSON report.",
    )
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="use the quick parameter profiles (CI smoke)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this experiment (repeatable)")
    parser.add_argument("--list", action="store_true", dest="list_experiments",
                        help="list registered experiments and exit")
    parser.add_argument("--baseline", metavar="PATH",
                        help="gate wall times against this baseline report")
    parser.add_argument("--gate", type=float, default=2.5, metavar="FACTOR",
                        help="fail when an experiment exceeds FACTOR x its "
                        "baseline wall time (default: 2.5)")
    parser.add_argument("--tables", metavar="PATH",
                        help="append the paper-style text tables here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_experiments:
        rows = [
            (name, "quick" if registry.get(name).quick else "-",
             registry.get(name).description)
            for name in registry.names()
        ]
        print_table("registered experiments",
                    ["name", "profiles", "description"], rows)
        return 0

    try:
        baseline = (
            runner.load_report(args.baseline) if args.baseline else None
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot load baseline {args.baseline!r}: {exc}",
              file=sys.stderr)
        return 2

    if args.only:
        # validate the selection up front, so a KeyError escaping an
        # experiment body surfaces as a traceback, not a usage error
        try:
            for name in args.only:
                registry.get(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    report = runner.run_suite(
        args.only,
        quick=args.quick,
        tables_path=args.tables,
        progress=lambda name: print(f"[bench] running {name} ..."),
    )

    print_table(
        "results",
        ["experiment", "wall s", "signs", "verifies", "hashes", "speedup"],
        [
            (
                record["name"],
                f"{record['wall_seconds']:.3f}",
                record["ops"]["signatures"],
                record["ops"]["verifications"],
                record["ops"]["hashes"],
                "-" if record["speedup_vs_serial"] is None
                else f"{record['speedup_vs_serial']:.2f}x",
            )
            for record in report["experiments"]
        ],
    )

    if args.out:
        runner.write_report(report, args.out)
        print(f"[bench] report written to {args.out}")

    if baseline is not None:
        if args.only:
            # a partial run gates only the selected experiments; the
            # rest of the baseline is out of scope, not MISSING
            baseline = dict(baseline)
            baseline["experiments"] = [
                record
                for record in baseline["experiments"]
                if record["name"] in set(args.only)
            ]
        ok, rows = runner.compare_to_baseline(report, baseline, args.gate)
        print_table(
            f"baseline gate (fail above {args.gate:.1f}x)",
            ["experiment", "baseline s", "current s", "status"],
            rows,
        )
        if not ok:
            print("[bench] FAIL: performance regression against baseline",
                  file=sys.stderr)
            return 1
        print("[bench] baseline gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
