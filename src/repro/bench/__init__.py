"""repro.bench — the machine-readable benchmark subsystem.

The paper's cost story (Section 3.8) is quantitative: per-round PVR cost
is dominated by signatures and verification, linear in the number of
providers.  This package turns the repo's experiments into *named,
parameterized, machine-checkable* specs:

* :mod:`repro.bench.registry` — the experiment registry: each experiment
  declares full-run and ``--quick`` parameter profiles and a function
  producing deterministic metrics;
* :mod:`repro.bench.runner` — runs experiments, measures wall time and
  crypto op counters (signatures / verifications / hashes), and emits a
  schema-versioned JSON report plus the paper-style text tables;
* :mod:`repro.bench.workloads` — the shared spec/route builders the
  pytest benchmarks under ``benchmarks/`` draw from;
* :mod:`repro.bench.experiments` — the registered experiment catalogue
  (the eight ``bench_*.py`` series, the internet-scale audit, and the
  audit / serve / cluster experiments);
* ``python -m repro.bench`` — the CLI: ``--quick --out bench.json``
  produces the report CI gates on (``--baseline``/``--gate``).
"""

from repro.bench.registry import (
    ExperimentContext,
    ExperimentSpec,
    get,
    names,
    register,
)
from repro.bench.runner import (
    SCHEMA,
    SCHEMA_VERSION,
    BenchReportError,
    compare_to_baseline,
    deterministic_view,
    load_report,
    run_experiment,
    run_suite,
    validate_report,
    write_report,
)
from repro.bench.tables import format_table, print_table

# importing the catalogue populates the registry
from repro.bench import experiments as _experiments  # noqa: F401

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "BenchReportError",
    "ExperimentContext",
    "ExperimentSpec",
    "compare_to_baseline",
    "deterministic_view",
    "format_table",
    "get",
    "load_report",
    "names",
    "print_table",
    "register",
    "run_experiment",
    "run_suite",
    "validate_report",
    "write_report",
]
