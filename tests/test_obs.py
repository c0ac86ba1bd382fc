"""The observability plane: deterministic tracing, the flight
recorder, the timeline CLI — and the acceptance criterion that pins
all of it down: **tracing on or off, the evidence trail is
byte-identical**, for the serial monitor, the sharded service and the
chaos-killed cluster alike.

The Hypothesis suite at the bottom is the structural property: every
coordinator trace is a well-formed forest (unique ids, every span
closed exactly once, every parent resolvable, pool slices opened in
worker order) across randomized chaos kills.
"""

import json

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ChurnRequest
from repro.cluster.spec import ChaosSpec
from repro.cluster.workload import (
    churn_script,
    drive_monitor,
    reference_mismatches,
    trail_mismatches,
)
from repro.obs import __main__ as obs_cli
from repro.obs.log import LogEmitter, configure_logging, emit
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import (
    critical_path,
    diff_traces,
    load_records,
    open_spans,
    render_timeline,
)
from repro.obs.trace import Stopwatch, TraceContext
from repro.util.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE

from test_cluster import PREFIXES, make_spec, run_script
from test_serve import served, settle_script, variant_spec


# -- TraceContext: deterministic ids, structure -------------------------------


class TestTraceContext:
    def test_ids_are_deterministic(self):
        def run():
            tracer = TraceContext("t")
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            tracer.event("ping")
            return [r["id"] for r in tracer.take_records()]

        assert run() == run() == ["t:2", "t:1", "t:3"]

    def test_nesting_parents_under_the_open_span(self):
        tracer = TraceContext("t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent == outer.id
        records = {r["id"]: r for r in tracer.take_records()}
        assert records[inner.id]["parent"] == outer.id
        assert records[outer.id]["parent"] is None

    def test_detached_spans_are_siblings_not_stack_entries(self):
        tracer = TraceContext("t")
        outer = tracer.begin("outer")
        a = tracer.begin("slice", detached=True)
        b = tracer.begin("slice", detached=True)
        # both parent under outer — b did NOT nest under a
        assert a.parent == outer.id
        assert b.parent == outer.id
        # and a regular child still parents under outer, not a/b
        child = tracer.begin("child")
        assert child.parent == outer.id
        for span in (child, b, a, outer):
            tracer.finish(span)
        assert not tracer.open

    def test_finish_is_idempotent(self):
        tracer = TraceContext("t")
        span = tracer.begin("stage")
        tracer.finish(span)
        end = span.end
        tracer.finish(span)  # the wrapper-finally path
        assert span.end == end
        assert len(tracer.take_records()) == 1

    def test_disabled_context_still_times_but_records_nothing(self):
        tracer = TraceContext("t", enabled=False)
        span = tracer.begin("stage")
        tracer.finish(span)
        assert span.end is not None
        assert span.duration >= 0.0
        assert not tracer.open
        assert tracer.take_records() == ()
        tracer.event("ping")
        assert tracer.take_records() == ()

    def test_error_status_on_raise(self):
        tracer = TraceContext("t")
        with pytest.raises(RuntimeError):
            with tracer.span("stage"):
                raise RuntimeError("boom")
        [record] = tracer.take_records()
        assert record["status"] == "error"

    def test_take_records_drains(self):
        tracer = TraceContext("t")
        tracer.finish(tracer.begin("stage"))
        assert len(tracer.take_records()) == 1
        assert tracer.take_records() == ()

    def test_stopwatch_measures(self):
        with Stopwatch() as watch:
            pass
        assert watch.seconds >= 0.0


# -- FlightRecorder -----------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        tracer = recorder.attach(TraceContext("t"))
        for index in range(10):
            tracer.finish(tracer.begin(f"stage-{index}"))
        assert [r["name"] for r in recorder.ring] == [
            "stage-6", "stage-7", "stage-8", "stage-9",
        ]

    def test_dump_writes_header_ring_and_open_spans(self, tmp_path):
        recorder = FlightRecorder()
        tracer = recorder.attach(TraceContext("t"))
        tracer.finish(tracer.begin("done"))
        tracer.begin("in-flight", worker=1)
        path = tmp_path / "flight.jsonl"
        assert recorder.dumped is False
        header = recorder.dump(str(path), "worker 1 reaped")
        assert recorder.dumped is True
        assert header == {
            "kind": "dump", "reason": "worker 1 reaped",
            "records": 1, "open": 1,
        }
        records = load_records(str(path))
        assert records[0]["kind"] == "dump"
        assert records[1]["name"] == "done"
        assert records[2]["name"] == "in-flight"
        assert records[2]["end"] is None
        assert records[2]["worker"] == 1

    def test_directory_dumps_rotate_with_a_bound(self, tmp_path):
        recorder = FlightRecorder(max_dumps=3)
        tracer = recorder.attach(TraceContext("t"))
        tracer.finish(tracer.begin("stage"))
        directory = tmp_path / "dumps"
        for index in range(5):
            recorder.dump(str(directory) + "/", f"incident {index}")
        names = sorted(p.name for p in directory.iterdir())
        # counters never restart: eviction drops the oldest files but
        # later dumps keep numbering upward
        assert names == [
            "dump-000003.jsonl", "dump-000004.jsonl", "dump-000005.jsonl",
        ]
        assert len(recorder.dumps) == 5
        headers = [
            load_records(str(directory / name))[0] for name in names
        ]
        assert [h["reason"] for h in headers] == [
            "incident 2", "incident 3", "incident 4",
        ]

    def test_explicit_file_paths_still_write_in_place(self, tmp_path):
        recorder = FlightRecorder()
        path = tmp_path / "flight.jsonl"
        recorder.dump(str(path), "first")
        recorder.dump(str(path), "second")
        assert load_records(str(path))[0]["reason"] == "second"


# -- the log emitter ----------------------------------------------------------


class TestLogEmitter:
    def test_text_mode_reproduces_bracket_lines(self, capsys):
        LogEmitter().emit("cluster", "all good", epoch=3, checked=4)
        out = capsys.readouterr()
        assert out.out == "[cluster] all good\n"
        assert out.err == ""

    def test_non_info_levels_go_to_stderr(self, capsys):
        LogEmitter().emit("cluster", "trouble", level="warn")
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "[cluster] trouble\n"

    def test_json_mode_carries_structured_fields(self, capsys):
        LogEmitter(json_mode=True).emit(
            "serve", "admitted", epoch=2, delivered=7
        )
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "level": "info", "component": "serve",
            "message": "admitted", "epoch": 2, "delivered": 7,
        }

    def test_configure_logging_flips_the_process_emitter(self, capsys):
        try:
            configure_logging(json_mode=True)
            emit("obs", "hello")
            assert json.loads(capsys.readouterr().out)["message"] == "hello"
        finally:
            configure_logging(json_mode=False)
        emit("obs", "hello")
        assert capsys.readouterr().out == "[obs] hello\n"


# -- timeline analysis over synthetic records ---------------------------------


def _span(id, name, start, end, *, parent=None, epoch=None, worker=None):
    return {
        "kind": "span", "id": id, "parent": parent, "name": name,
        "component": "test", "epoch": epoch, "worker": worker,
        "start": start, "end": end, "status": "ok", "attrs": {},
    }


SYNTHETIC = [
    _span("c:1", "epoch", 0.0, 1.0, epoch=1),
    _span("c:2", "plan", 0.0, 0.1, parent="c:1", epoch=1),
    _span("c:3", "slice", 0.1, 0.7, parent="c:1", epoch=1, worker=0),
    _span("c:4", "slice", 0.1, 0.4, parent="c:1", epoch=1, worker=1),
    _span("c:5", "merge", 0.7, 0.8, parent="c:1", epoch=1),
    _span("c:6", "epoch", 1.0, 3.0, epoch=2),
    _span("c:7", "slice", 1.0, 2.9, parent="c:6", epoch=2, worker=1),
    _span("c:8", "slice", 1.0, None, parent="c:6", epoch=2, worker=2),
]


class TestTimelineAnalysis:
    def test_critical_path_names_dominant_stage_and_worker(self):
        path = critical_path(SYNTHETIC)
        assert sorted(path) == [1, 2]
        epoch1 = path[1]
        assert epoch1["stage"] == "slice"
        assert epoch1["stage_seconds"] == pytest.approx(0.9)
        assert epoch1["worker"] == 0
        assert epoch1["worker_seconds"] == pytest.approx(0.6)
        assert epoch1["wall_seconds"] == pytest.approx(1.0)
        epoch2 = path[2]
        assert epoch2["stage"] == "slice"
        assert epoch2["worker"] == 1

    def test_diff_traces_reports_per_stage_deltas(self):
        a = [_span("a:1", "plan", 0.0, 0.2)]
        b = [
            _span("b:1", "plan", 0.0, 0.1),
            _span("b:2", "merge", 0.1, 0.4),
        ]
        rows = {row["stage"]: row for row in diff_traces(a, b)}
        assert rows["plan"]["delta_seconds"] == pytest.approx(-0.1)
        assert rows["merge"]["a_seconds"] == 0.0
        assert rows["merge"]["b_seconds"] == pytest.approx(0.3)
        # c:1/c:6 are containers, c:8 never closed: neither is a stage
        rows = {row["stage"]: row for row in diff_traces([], SYNTHETIC)}
        assert set(rows) == {"plan", "slice", "merge"}
        assert rows["slice"]["b_seconds"] == pytest.approx(0.6 + 0.3 + 1.9)
        assert diff_traces([], []) == []

    def test_open_spans_filter_by_worker(self):
        assert [r["id"] for r in open_spans(SYNTHETIC)] == ["c:8"]
        assert open_spans(SYNTHETIC, worker=1) == []
        assert [r["id"] for r in open_spans(SYNTHETIC, worker=2)] == ["c:8"]

    def test_render_timeline_flags_open_spans_and_dump_headers(self):
        records = [
            {"kind": "dump", "reason": "worker 2 reaped",
             "records": 8, "open": 1},
            *SYNTHETIC,
        ]
        lines = render_timeline(records)
        assert lines[0] == (
            "flight dump: worker 2 reaped (8 record(s), 1 open span(s))"
        )
        assert any("OPEN" in line and "w2" in line for line in lines)
        assert any(line == "epoch 1" for line in lines)


# -- the CLI ------------------------------------------------------------------


@pytest.fixture
def chaos_dump(tmp_path):
    """A real flight dump: an inline 3-worker cluster whose worker 1 is
    chaos-killed mid-batch; the coordinator dumps at the reap."""
    path = tmp_path / "flight.jsonl"
    spec = make_spec(
        "minimum",
        chaos=ChaosSpec(worker=1, epoch=2, after=1),
        flight_dump=str(path),
    )
    requests = churn_script(PREFIXES, rounds=4, violation_every=3)
    cluster, _ = run_script(spec, requests)
    assert cluster.metrics.respawns, "the chaos kill never fired"
    assert path.exists(), "the reap did not dump the flight recorder"
    return str(path)


class TestObsCli:
    def test_timeline_names_the_reaped_workers_span(self, chaos_dump,
                                                    capsys):
        assert obs_cli.main(
            ["timeline", chaos_dump, "--require-reaped", "1"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "flight dump: worker 1 reaped" in out
        assert "worker 1 in-flight span at dump: slice" in out

    def test_require_reaped_fails_for_an_unreaped_worker(self, chaos_dump,
                                                         capsys):
        assert obs_cli.main(
            ["timeline", chaos_dump, "--require-reaped", "7"]
        ) == EXIT_FAILURE
        assert "no open span for worker 7" in capsys.readouterr().err

    def test_critical_path_and_json(self, chaos_dump, tmp_path, capsys):
        out_path = tmp_path / "critical.json"
        assert obs_cli.main(
            ["critical-path", chaos_dump, "--json", str(out_path)]
        ) == EXIT_OK
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.obs/analysis"
        assert document["epochs"], "no epochs attributed"

    def test_diff(self, chaos_dump, capsys):
        assert obs_cli.main(["diff", chaos_dump, chaos_dump]) == EXIT_OK
        out = capsys.readouterr().out
        assert "+0.000ms" in out

    def test_missing_dump_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert obs_cli.main(["timeline", missing]) == EXIT_USAGE

    def test_timeline_renders_a_whole_dump_directory(self, tmp_path,
                                                     capsys):
        recorder = FlightRecorder()
        tracer = recorder.attach(TraceContext("t"))
        tracer.finish(tracer.begin("fold", epoch=1))
        directory = tmp_path / "dumps"
        recorder.dump(str(directory) + "/", "first incident")
        tracer.finish(tracer.begin("slice", epoch=2, worker=1))
        recorder.dump(str(directory) + "/", "second incident")
        assert obs_cli.main(["timeline", str(directory)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "flight dump: first incident" in out
        assert "flight dump: second incident" in out
        assert "epoch 1" in out and "epoch 2" in out


# -- acceptance: tracing cannot move a byte of evidence -----------------------


class TestTraceParity:
    """The ISSUE's acceptance criterion: tracing on and off produce
    byte-identical evidence trails in all three deployment shapes."""

    def test_serial_monitor_trail_is_trace_invariant(self):
        spec = make_spec("minimum")
        requests = churn_script(PREFIXES, rounds=4, violation_every=3)

        def trail(enabled):
            monitor = spec.build_monitor()
            monitor.tracer = TraceContext("m", enabled=enabled)
            drive_monitor(monitor, requests)
            return monitor.evidence

        traced, untraced = trail(True), trail(False)
        assert traced.events()
        assert trail_mismatches(traced, untraced) == []

    def test_serve_two_shard_trail_is_trace_invariant(self):
        def trail(trace):
            return served(
                variant_spec(
                    "minimum", workers=2, transport="inline",
                    parity_sample=1, trace=trace,
                ),
                settle_script()[:3],
            ).evidence

        traced, untraced = trail(True), trail(False)
        assert traced.events()
        assert trail_mismatches(traced, untraced) == []

    def test_chaos_killed_process_cluster_is_trace_invariant(self):
        requests = churn_script(PREFIXES, rounds=5, violation_every=3)

        def trail(trace):
            spec = make_spec(
                "minimum",
                transport="process",
                chaos=ChaosSpec(worker=1, epoch=2, after=1),
                trace=trace,
            )
            cluster, evidence = run_script(spec, requests)
            assert cluster.metrics.respawns, "the chaos kill never fired"
            assert cluster.metrics.parity_failed == 0
            return spec, evidence

        spec, traced = trail(True)
        _, untraced = trail(False)
        assert trail_mismatches(traced, untraced) == []
        # and both match the unsharded reference
        assert reference_mismatches(spec, requests, traced) == []


# -- the forest property across chaos kills -----------------------------------


def _assert_well_formed_forest(records):
    spans = [r for r in records if r["kind"] == "span"]
    ids = [r["id"] for r in records]
    assert len(ids) == len(set(ids)), "duplicate record ids"
    known = set(ids)
    for record in records:
        parent = record.get("parent")
        assert parent is None or parent in known, (
            f"{record['id']} parents under unknown span {parent}"
        )
    for span in spans:
        assert span["end"] is not None, f"{span['id']} never closed"
        assert span["end"] >= span["start"]


@settings(max_examples=5, deadline=None)
@given(
    worker=st.integers(min_value=0, max_value=2),
    epoch=st.integers(min_value=1, max_value=3),
    after=st.integers(min_value=0, max_value=2),
)
def test_coordinator_trace_is_a_well_formed_forest(worker, epoch, after):
    """Whatever chaos does, the merged trace stays a forest: unique
    ids, every span closed exactly once, every parent resolvable, and
    each epoch's pool slices opened in worker-index order (a retry on a
    survivor comes after all of them)."""
    spec = make_spec(
        "minimum", chaos=ChaosSpec(worker=worker, epoch=epoch, after=after)
    )
    requests = churn_script(PREFIXES, rounds=4, violation_every=3)
    cluster, evidence = run_script(spec, requests)
    assert evidence.events()
    records = list(cluster.tracer.records)
    assert records, "tracing was on but nothing was recorded"
    assert not cluster.tracer.open, "spans left open after a clean stop"
    _assert_well_formed_forest(records)
    by_epoch = {}
    for record in records:
        if record["kind"] == "span" and record["name"] == "slice":
            by_epoch.setdefault(record["epoch"], []).append(
                record["worker"]
            )
    assert by_epoch, "no pool slice was traced"
    for slice_workers in by_epoch.values():
        first_pass = slice_workers[:len(set(slice_workers))]
        assert first_pass == sorted(set(slice_workers))


def test_a_failed_plan_closes_its_epoch_span(monkeypatch):
    """Planning raises (a policy that cannot materialise): the
    ``epoch`` span closes with
    ``status="error"`` instead of staying open for good and adopting
    every later epoch as its child."""
    with make_spec("minimum").build() as cluster:
        plan_epoch = cluster.monitor.plan_epoch

        def failing_once():
            monkeypatch.setattr(cluster.monitor, "plan_epoch", plan_epoch)
            raise RuntimeError("planner failed")

        monkeypatch.setattr(cluster.monitor, "plan_epoch", failing_once)
        with pytest.raises(RuntimeError, match="planner failed"):
            cluster.request(ChurnRequest())
        assert cluster.tracer.open_records() == []
        cluster.request(ChurnRequest())
        epochs = [
            r for r in cluster.tracer.records
            if r["kind"] == "span" and r["name"] == "epoch"
        ]
    assert [r["status"] for r in epochs] == ["error", "ok"]
    assert epochs[1]["parent"] is None
