"""Self-test of the benchmark at toy size (P=4, 512-bit keys).

    python -m pytest benchmarks/e2e -q

Drives every workload and microdriver through the real entry point with
``--smoke``, and checks that what is printed is what ``BENCHMARK.json``
names, that the spans are well formed, and that the benchmark's
span-instrumented monitor driver leaves the same trail as the program's
own ``drive_monitor``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import metrics
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def suite_report():
    path = os.path.join(HERE, "out", "selftest-report.json")
    done = run("--smoke", "--repeat", "2", "--seed", "5", "--out", path)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_contract_lists_the_metrics_the_code_emits():
    document = contract()
    assert sorted(document) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["run_seconds"] == workloads.REFERENCE_SECONDS
    assert [w["name"] for w in document["workloads"]] == list(
        metrics.WORKLOADS
    )
    e2e = {m["name"]: m for m in document["end_to_end"]}
    assert list(e2e) == list(metrics.CONTRACT_E2E)
    for name, entry in e2e.items():
        _n, unit, better, bound, _on = metrics.e2e_entry(name)
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            unit, better, bound,
        )
        assert 0 < entry["bound"] <= 0.25
    assert "setup_s" in e2e
    assert [
        (m["name"], m["unit"], m["better"]) for m in document["per_layer"]
    ] == metrics.contract_per_layer()
    assert len(document["end_to_end"]) <= 16
    assert len(document["per_layer"]) <= 128
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_workload_prints_the_contract_object(trace):
    done = run("--workload", "table-cold", "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    listed = contract()["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        value = last["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], (int, float))
        # every metric is also printed by name with its unit
        assert re.search(
            rf"{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}",
            done.stdout,
        )


def test_suite_runs_every_workload_and_names_every_metric(suite_report):
    report, printed = suite_report
    assert report["smoke"] is True
    assert sorted(report["workloads"]) == sorted(metrics.WORKLOADS)
    for workload, entry in report["workloads"].items():
        assert entry["failed"] == 0, entry["problems"]
        assert sorted(entry["e2e"]) == sorted(m[0] for m in metrics.E2E)
        for name, _unit, _better, _bound, on in metrics.E2E:
            values = entry["e2e"][name]["values"]
            assert len(values) == 2
            assert all((v is not None) == (workload in on) for v in values)
        assert sorted(entry["per_layer"]) == sorted(
            name for name, _u, _b in metrics.PER_LAYER
        )
        assert entry["budget"], "no layer budget"
    steady = report["workloads"]["steady-sweep"]["per_layer"]
    assert steady["crypto.signatures"] == 0
    assert steady["audit.reuse_ratio"] == 1.0
    for name, _unit, _better in metrics.PER_LAYER:
        assert name in printed
    assert "layer budget of the cluster-durable drive" in printed


def test_spans_are_well_formed_and_self_times_add_up(suite_report):
    for workload in metrics.WORKLOADS:
        path = os.path.join(HERE, "out", f"{workload}.spans.jsonl")
        with open(path, encoding="utf-8") as handle:
            recorded = [json.loads(line) for line in handle]
        assert recorded
        for span in recorded:
            assert sorted(span) == [
                "end", "id", "layer", "name", "parent", "request", "start",
            ]
            assert span["name"].split(".")[0] == span["layer"]
            assert span["end"] >= span["start"]
            assert span["request"]
        own = spans.self_times(recorded)
        by_request = {}
        for span in recorded:
            by_request.setdefault(span["request"], []).append(span)
        ids = {span["id"] for span in recorded}
        assert all(s["parent"] is None or s["parent"] in ids for s in recorded)
        for request, group in by_request.items():
            if not request.startswith(workload + "/"):
                continue
            members = {span["id"] for span in group}
            roots = [s for s in group if s["parent"] not in members]
            assert len(roots) == 1, request
            total = sum(own[span["id"]] for span in group)
            duration = roots[0]["end"] - roots[0]["start"]
            assert abs(total - duration) < 1e-6, request


def test_span_driver_leaves_the_same_trail_as_drive_monitor():
    from repro.cluster.workload import drive_monitor, trail_mismatches

    sizes = workloads.sizes_for("cluster-durable", 1.0, smoke=True)
    script = workloads.cluster_script(sizes, seed=5)
    spec = workloads.cluster_spec(sizes)
    ours, theirs = spec.build_monitor(), spec.build_monitor()
    recorder = spans.Recorder(True)
    workloads.drive_script(ours, script, recorder, "parity")
    drive_monitor(theirs, script)
    assert len(ours.evidence) > len(script)
    assert trail_mismatches(ours.evidence, theirs.evidence, limit=None) == []
    # the benchmark's own oracle agrees, and sees a trail that differs
    mine, reference = ours.evidence.events(), theirs.evidence.events()
    assert workloads.trail_mismatches(mine, reference) == []
    assert workloads.trail_mismatches(mine, reference[:-1])
    other = spec.build_monitor()
    drive_monitor(other, workloads.cluster_script(sizes, seed=6))
    assert workloads.trail_mismatches(mine, other.evidence.events())
    assert {s["name"] for s in recorder.spans} == {
        "bench.request", "bgp.apply_steps", "bgp.quiesce", "audit.plan",
        "audit.execute", "audit.probe",
    }


def test_exits_nonzero_where_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def _report(values, per_layer=None):
    def entry(name):
        return {"values": values[name], "median": sorted(values[name])[1]}

    return {
        "smoke": False,
        "host": {"cpus": 2},
        "workloads": {
            workload: {
                "e2e": {
                    name: entry(name) if name in values
                    else {"values": [None] * 3, "median": None}
                    for name, *_ in metrics.E2E
                },
                "per_layer": per_layer,
            }
            for workload in metrics.WORKLOADS
        },
    }


def test_compare_tells_regressed_from_unresolved(capsys):
    steady = _report({"events_per_s": [100.0, 101.0, 102.0]})
    slower = _report({"events_per_s": [60.0, 61.0, 62.0]})
    noisy = _report({"events_per_s": [40.0, 100.0, 160.0]})
    assert compare.compare([steady], [steady]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare.compare([steady], [slower]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare([noisy], [slower]) == 0
    out = capsys.readouterr().out
    assert "unresolved" in out
    assert re.search(r"  regressed$", out, re.M) is None
