"""The benchmark subsystem: registry resolution, report schema
round-trips, ``--quick`` determinism, the CLI, and the baseline gate."""

import copy
import json

import pytest

from repro import bench
from repro.bench import registry, runner
from repro.bench.__main__ import main as bench_main
from repro.bench.tables import format_table

# a cheap, fully deterministic sub-suite for runner-level tests
CHEAP = ["sec36-merkle", "sec38-batching", "strawman-gap"]


class TestRegistry:
    def test_catalogue_is_populated(self):
        names = bench.names()
        for expected in (
            "fig1-minimum-round",
            "fig1-detection-matrix",
            "sec32-existential-round",
            "fig2-graph-round",
            "sec36-merkle",
            "sec38-crypto-primitives",
            "sec38-batching",
            "scale-bgp-sweep",
            "strawman-gap",
            "internet-scale-audit",
        ):
            assert expected in names
        assert names == tuple(sorted(names))

    def test_get_resolves(self):
        spec = bench.get("fig1-minimum-round")
        assert spec.name == "fig1-minimum-round"
        assert spec.description
        assert spec.params["k"] == 16

    def test_unknown_experiment_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            bench.get("no-such-experiment")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            bench.register("sec36-merkle", "dup")(lambda ctx: {})

    def test_quick_profile_overrides_params(self):
        spec = bench.get("fig1-minimum-round")
        assert spec.resolved_params()["key_bits"] == 1024
        assert spec.resolved_params(quick=True)["key_bits"] == 512
        assert spec.resolved_params(quick=True, overrides={"k": 2})["k"] == 2

    def test_context_tracks_keystore_ops(self):
        ctx = registry.ExperimentContext({"key_bits": 512}, quick=True)
        store = ctx.keystore(seed=1)
        store.register("A")
        store.sign("A", b"x")
        assert ctx.ops() == {"signatures": 1, "verifications": 0}


class TestReportSchema:
    @pytest.fixture(scope="class")
    def report(self):
        return runner.run_suite(CHEAP, quick=True)

    def test_schema_valid(self, report):
        runner.validate_report(report)
        assert report["schema_version"] == runner.SCHEMA_VERSION
        assert [r["name"] for r in report["experiments"]] == CHEAP

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "bench.json"
        runner.write_report(report, str(path))
        loaded = runner.load_report(str(path))
        assert loaded == json.loads(json.dumps(report))
        runner.validate_report(loaded)

    def test_record_shape(self, report):
        for record in report["experiments"]:
            assert record["wall_seconds"] >= 0
            for op in ("signatures", "verifications", "hashes"):
                assert record["ops"][op] >= 0
            assert isinstance(record["metrics"], dict)

    @pytest.mark.parametrize(
        "mutation, match",
        [
            (lambda r: r.update(schema_version=99), "schema_version"),
            (lambda r: r.update(experiments=[]), "non-empty"),
            (lambda r: r["experiments"][0].pop("ops"), "ops"),
            (
                lambda r: r["experiments"][0]["ops"].update(signatures=-1),
                "signatures",
            ),
            (
                lambda r: r["experiments"].append(r["experiments"][0]),
                "duplicate",
            ),
        ],
    )
    def test_validation_rejects_malformed(self, report, mutation, match):
        broken = copy.deepcopy(report)
        mutation(broken)
        with pytest.raises(runner.BenchReportError, match=match):
            runner.validate_report(broken)


class TestQuickDeterminism:
    def test_two_quick_runs_agree(self):
        first = runner.run_suite(CHEAP, quick=True)
        second = runner.run_suite(CHEAP, quick=True)
        assert runner.deterministic_view(first) == runner.deterministic_view(
            second
        )

    def test_cluster_recovery_keeps_wall_clock_under_timing(self):
        """The journal's walls — and its byte count, which moves with
        the repr of the wall-clock floats inside the records — are not
        reproducible, so they must not leak outside ``timing``."""
        first = runner.run_suite(["cluster-recovery"], quick=True)
        second = runner.run_suite(["cluster-recovery"], quick=True)
        assert runner.deterministic_view(first) == runner.deterministic_view(
            second
        )

    def test_deterministic_view_strips_timing(self):
        report = runner.run_suite(["strawman-gap"], quick=True)
        view = runner.deterministic_view(report)
        metrics = view["strawman-gap"]["metrics"]
        assert "timing" not in metrics
        assert "and_gates" in metrics


class TestBaselineGate:
    def make_report(self, walls):
        return {
            "schema": runner.SCHEMA,
            "schema_version": runner.SCHEMA_VERSION,
            "quick": True,
            "host": {"python": "3", "platform": "test", "cpus": 1},
            "experiments": [
                {
                    "name": name,
                    "description": "",
                    "params": {},
                    "quick": True,
                    "wall_seconds": wall,
                    "ops": {"signatures": 0, "verifications": 0, "hashes": 0},
                    "metrics": {},
                    "speedup_vs_serial": None,
                }
                for name, wall in walls.items()
            ],
        }

    def test_within_budget_passes(self):
        baseline = self.make_report({"a": 1.0, "b": 0.5})
        current = self.make_report({"a": 2.0, "b": 1.0})
        ok, rows = runner.compare_to_baseline(current, baseline, 2.5)
        assert ok
        assert all("ok" in row[3] for row in rows)

    def test_regression_fails(self):
        baseline = self.make_report({"a": 1.0})
        current = self.make_report({"a": 2.6})
        ok, rows = runner.compare_to_baseline(current, baseline, 2.5)
        assert not ok
        assert "REGRESSION" in rows[0][3]

    def test_missing_experiment_fails(self):
        baseline = self.make_report({"a": 1.0, "gone": 1.0})
        current = self.make_report({"a": 1.0})
        ok, rows = runner.compare_to_baseline(current, baseline, 2.5)
        assert not ok
        assert any("MISSING" in row[3] for row in rows)

    def test_new_experiment_passes(self):
        baseline = self.make_report({"a": 1.0})
        current = self.make_report({"a": 1.0, "fresh": 9.0})
        ok, rows = runner.compare_to_baseline(current, baseline, 2.5)
        assert ok
        assert any(row[3] == "new" for row in rows)

    def test_microsecond_noise_is_floored(self):
        baseline = self.make_report({"a": 0.0001})
        current = self.make_report({"a": 0.004})  # 40x, but below the floor
        ok, _ = runner.compare_to_baseline(current, baseline, 2.5)
        assert ok


class TestCLI:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1-minimum-round" in out

    def test_unknown_experiment_is_usage_error(self, capsys):
        assert bench_main(["--only", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_valid_report(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code = bench_main(
            ["--quick", "--only", "sec36-merkle", "--out", str(out_path)]
        )
        assert code == 0
        report = runner.load_report(str(out_path))
        assert report["quick"] is True
        assert report["experiments"][0]["name"] == "sec36-merkle"

    def test_gate_failure_exit_code(self, tmp_path, capsys):
        # a baseline claiming the experiment once took ~nothing
        current = runner.run_suite(["sec38-batching"], quick=True)
        baseline = copy.deepcopy(current)
        baseline["experiments"][0]["wall_seconds"] = (
            current["experiments"][0]["wall_seconds"] / 100
        )
        base_path = tmp_path / "baseline.json"
        runner.write_report(baseline, str(base_path))
        code = bench_main(
            ["--quick", "--only", "sec38-batching",
             "--baseline", str(base_path), "--gate", "2.5"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert bench_main(["--baseline", str(bad)]) == 2


class TestTables:
    def test_empty_rows_from_generator(self):
        """Regression: multi-column headers with an (empty) iterator of
        rows used to crash on an empty star-unpack inside max()."""
        text = format_table("t", ["alpha", "b"], iter([]))
        assert "alpha" in text

    def test_one_shot_generator_consumed_once(self):
        rows = ((i, i * i) for i in range(3))
        text = format_table("t", ["n", "sq"], rows)
        assert "2  4" in text

    def test_short_rows_padded(self):
        text = format_table("t", ["a", "b", "c"], [(1,), (2, 3)])
        assert "1" in text and "3" in text

    def test_column_widths_fit_widest_cell(self):
        text = format_table("t", ["h"], [("wide-cell-value",)])
        _, title, header, row = text.splitlines()
        assert title == "== t =="
        assert header.startswith("h")
        assert len(header) == len(row) == len("wide-cell-value")

    def test_print_table_appends_to_path(self, tmp_path, capsys):
        from repro.bench.tables import print_table

        path = tmp_path / "tables.txt"
        print_table("one", ["x"], [(1,)], path=str(path))
        print_table("two", ["y"], [(2,)], path=str(path))
        text = path.read_text()
        assert "== one ==" in text and "== two ==" in text
