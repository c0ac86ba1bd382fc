"""What the benchmark records about the machine it ran on."""

from __future__ import annotations

import os
import resource
import sys
import time


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def calibration_seconds() -> float:
    """A fixed modular-exponentiation loop, the operation the audit
    stack spends its time in; lets a reader see how two hosts compare."""
    modulus = (1 << 1023) + 1155
    base = 0xC0FFEE
    started = time.perf_counter()
    for _ in range(60):
        base = pow(base, modulus - 2, modulus)
    return time.perf_counter() - started


def describe() -> dict:
    return {
        "cpus": cpus(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "platform": sys.platform,
        "calibration_s": calibration_seconds(),
    }


def tree_rss_mb() -> float:
    """Peak resident memory of this process plus its live descendants:
    the sum of each one's high-water mark (``VmHWM``), in MB.  Falls
    back to ``getrusage`` where ``/proc`` is not available."""
    try:
        entries = [e for e in os.listdir("/proc") if e.isdigit()]
    except OSError:
        return (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0
    parent_of = {}
    peak_kb = {}
    for entry in entries:
        try:
            with open(f"/proc/{entry}/status", encoding="ascii") as handle:
                fields = dict(
                    line.split(":", 1) for line in handle if ":" in line
                )
            parent_of[int(entry)] = int(fields["PPid"])
            peak_kb[int(entry)] = int(fields.get("VmHWM", "0 kB").split()[0])
        except (OSError, KeyError, ValueError):
            continue  # the process ended while we were reading
    family = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, parent in parent_of.items():
            if parent in family and pid not in family:
                family.add(pid)
                grew = True
    return sum(peak_kb.get(pid, 0) for pid in family) / 1024.0
