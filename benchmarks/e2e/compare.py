"""Paired comparison of suite reports: the A/B helper for perf PRs.

    python3 benchmarks/e2e/compare.py P1.json C1.json [P2.json C2.json ...]

The arguments alternate parent / change reports written by
``run.py --out`` (run them alternating which side goes first).  For each
(workload, end-to-end metric) it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither),
and the relative change set against the metric's bound, and gives one
verdict:

* ``regressed``  the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` the parent's own inter-quartile spread exceeds the
  bound, so the runs cannot tell (unless every run of the change reads
  better than every run of the parent);
* ``improved``   at least ten pairs, the change wins nine tenths of
  them, and the medians differ by more than the parent's spread;
* ``unchanged``  none of the above.

With two reports of the same commit this is the benchmark's acceptance
check: exit status 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional

from metrics import (
    COUNT_METRICS, E2E, WORKLOADS, lower_quartile, upper_quartile,
)

SCRIPTED = ("table-cold", "steady-sweep", "cluster-durable")


def _values(reports, workload: str, name: str) -> List[float]:
    return [
        value
        for report in reports
        for value in report["workloads"][workload]["e2e"][name]["values"]
        if value is not None
    ]


def _file_median(report, workload: str, name: str) -> Optional[float]:
    return report["workloads"][workload]["e2e"][name]["median"]


def compare(parents: list, changes: list) -> int:
    pairs = len(parents)
    regressed = unresolved = 0
    header = (
        f"{'workload':16} {'metric':24} {'parent med [q1, q3]':>34} "
        f"{'change med [q1, q3]':>34} {'wins':>6} {'worse by':>9} "
        f"{'bound':>6}  verdict"
    )
    print(header)
    for workload in WORKLOADS:
        for name, _unit, better, bound, _on in E2E:
            ours = _values(parents, workload, name)
            theirs = _values(changes, workload, name)
            if not ours or not theirs:
                continue
            sign = 1.0 if better == "lower" else -1.0
            parent_med = statistics.median(ours)
            change_med = statistics.median(theirs)
            p1, p3 = lower_quartile(ours), upper_quartile(ours)
            c1, c3 = lower_quartile(theirs), upper_quartile(theirs)
            wins = losses = 0
            for parent, change in zip(parents, changes):
                a = _file_median(parent, workload, name)
                b = _file_median(change, workload, name)
                if a is None or b is None or a == b:
                    continue
                if (b - a) * sign < 0:
                    wins += 1
                else:
                    losses += 1
            if name == "failed_fraction":
                # absolute: the baseline is exactly 0
                verdict = "regressed" if change_med > parent_med else "unchanged"
                worse = change_med - parent_med
                spread = 0.0
            else:
                worse = sign * (change_med - parent_med) / parent_med
                spread = (p3 - p1) / parent_med
                all_better = all(
                    (b - a) * sign < 0 for a in ours for b in theirs
                )
                if worse > bound and spread <= bound:
                    verdict = "regressed"
                elif spread > bound and not all_better:
                    verdict = "unresolved"
                elif (
                    pairs >= 10
                    and wins >= 0.9 * pairs
                    and abs(change_med - parent_med) > (p3 - p1)
                ):
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            regressed += verdict == "regressed"
            unresolved += verdict == "unresolved"
            print(
                f"{workload:16} {name:24} "
                f"{parent_med:12.5g} [{p1:9.5g},{p3:9.5g}] "
                f"{change_med:12.5g} [{c1:9.5g},{c3:9.5g}] "
                f"{wins:>3}/{wins + losses:<2} {worse:>+9.3f} {bound:>6.2f}"
                f"  {verdict}"
            )
    differing = 0
    for workload in SCRIPTED:
        ours = parents[0]["workloads"][workload]["per_layer"]
        theirs = changes[0]["workloads"][workload]["per_layer"]
        if ours is None or theirs is None:
            print(f"counts of {workload}: not compared (--e2e-only report)")
            continue
        for name in COUNT_METRICS:
            if ours.get(name) != theirs.get(name):
                differing += 1
                print(f"count differs: {workload} {name}: "
                      f"{ours.get(name)} -> {theirs.get(name)}")
    if not differing:
        print("counts: no count-type per-layer metric differs on the "
              "scripted workloads")
    if pairs < 10:
        print(f"{pairs} pair(s): a gain may be claimed from ten or more")
    print(f"{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


def main(argv: List[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    if any(report["smoke"] for report in reports):
        print("a smoke report is never comparable", file=sys.stderr)
        return 2
    hosts = {
        (report["host"] or {}).get("cpus") for report in reports
    } - {None}
    if len(hosts) > 1:
        print(f"reports come from hosts with different cpu counts "
              f"{sorted(hosts)}: not comparable", file=sys.stderr)
        return 2
    return compare(reports[0::2], reports[1::2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
