"""Smoke tests: every example script runs to completion and prints the
narrative it promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_example(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Honest round" in out
        assert "GUILTY" in out
        assert "confidentiality holds: True" in out

    def test_partial_transit(self):
        out = run_example("partial_transit.py")
        assert "graph implements the promise: True" in out
        assert "B's verdict: OK" in out
        assert "EU-PEER-1, EU-PEER-2" in out

    def test_detect_violation(self):
        out = run_example("detect_violation.py")
        assert "GUILTY" in out
        assert "dismissed" in out  # the false accusation collapses
        assert "violations on file:     9" in out  # the store's tally

    def test_continuous_audit(self):
        out = run_example("continuous_audit.py")
        assert "0 verified, 2 reused, 0 signatures" in out
        assert "violation detected by: B" in out
        assert "GUILTY (shorter-available)" in out

    def test_internet_scale(self):
        out = run_example("internet_scale.py")
        assert "clean" in out
        assert "BGP converged" in out

    def test_serve_demo(self):
        out = run_example("serve_demo.py")
        assert "served from cache (0 signatures)" in out
        assert "violation probe: caught=True" in out
        assert "1 adjudicated guilty" in out
        assert "0 failed" in out  # the parity self-check

    def test_cluster_demo(self):
        out = run_example("cluster_demo.py")
        assert "died (pipe closed mid-epoch" in out
        assert "recovered from the journal at request boundary 3" in out
        assert "from cache (0 signatures)" in out
        assert "violation probe: caught=True" in out
        assert "BYTE-IDENTICAL" in out
        assert "0 failed" in out

    def test_ledger_demo(self):
        out = run_example("ledger_demo.py")
        assert "PROBATIONARY -> STANDARD" in out
        assert "STANDARD -> TRUSTED" in out
        assert "saved" in out and "sampled out" in out
        assert "judge says CONFIRMED" in out
        assert "TRUSTED -> QUARANTINED citing adjudicated seqs" in out
        assert "hash chain verified: True" in out

    def test_linkstate_ring(self):
        out = run_example("linkstate_ring.py")
        assert "REJECTED (ring mismatch)" in out
        assert "REJECTED (statement binds the round)" in out

    def test_promise_levels(self):
        out = run_example("promise_levels.py")
        assert "contracted slack k=2: accepted" in out
        assert "contracted slack k=1: VIOLATION" in out
        assert "UNEQUAL TREATMENT" in out
