"""repro.bench — helpers shared by the benchmarks and the CLIs.

* :mod:`repro.bench.tables` — the paper-style text tables the
  ``benchmarks/`` series and the serve / cluster / audit / ledger CLIs
  print;
* :mod:`repro.bench.workloads` — the spec/route builders the Fig. 1,
  Fig. 2 and Section 3.2 series under ``benchmarks/`` draw from.

The measurements themselves live outside the package: ``pytest
benchmarks/ --benchmark-only`` is the paper's figures, and
``benchmarks/e2e/run.py`` is the end-to-end benchmark with its
per-layer budget.
"""
