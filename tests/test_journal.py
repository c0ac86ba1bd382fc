"""Durability: the write-ahead journal and coordinator crash recovery.

The invariant under test everywhere: a coordinator that dies at an
arbitrary point — mid-epoch, with a torn final journal line —
restarts from the journal at the last commit boundary, re-drives
only the uncommitted suffix of the script, and leaves an evidence trail
**byte-identical** to a run that never crashed.  :mod:`repro.journal`
unit tests pin the on-disk format (one checksummed JSONL file, torn-tail
truncation, appended checkpoints and compaction by atomic rename, fsyncs
only at boundaries, the old segmented layout refused by name);
Hypothesis drives arbitrary byte-level tears and arbitrary replay splits.
"""

import itertools
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterError
from repro.cluster.requests import AdjudicateRequest, AuditProbe, ChurnRequest
from repro.cluster.spec import ChaosSpec, PolicySpec
from repro.crypto import rsa
from repro.cluster.workload import (
    churn_script,
    drive_monitor,
    reference_mismatches,
    serve_spec,
    trail_mismatches,
)
from repro.journal import (
    BOUNDARY_TYPES,
    JOURNAL_FORMAT,
    Journal,
    JournalError,
    JournalReplayer,
    pack,
    recover_state,
    unpack,
)
from repro.ledger import TrustLevel, confirmed
from repro.promises.spec import ShortestRoute
from repro.pvr.scenarios import reoriginate, serve_prefixes

from test_cluster import PREFIXES, VARIANT_POLICIES, make_spec, run_script


def journal_spec(tmp_path, variant="minimum", **overrides):
    options = dict(journal=str(tmp_path / "journal"))
    options.update(overrides)
    return make_spec(variant, **options)


def script(rounds=5, violation_every=0):
    return churn_script(
        PREFIXES, rounds=rounds, violation_every=violation_every
    )


def refusal(found):
    return f"journal format {found}, this build reads {JOURNAL_FORMAT}"


def read_back(directory):
    """The records a journal holds on disk, read by reopening it."""
    with Journal(directory) as journal:
        return list(journal.records)


@pytest.mark.parametrize("module", ["repro.journal", "repro.journal.recovery"])
def test_imports_first_in_a_clean_interpreter(module):
    """Regression: recovery imported ``repro.cluster.requests`` at module
    level, whose package init imports recovery back — so importing
    ``repro.journal`` before ``repro.cluster`` raised ImportError."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr


# -- the journal file format ---------------------------------------------------


class TestJournal:
    def test_records_survive_a_reopen(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(5):
                journal.append("event", {"index": index})
        reopened = Journal(directory)
        assert reopened.records == [
            (index + 1, "event", {"index": index}) for index in range(5)
        ]
        assert reopened.seq == 5
        assert reopened.truncated_tail is False
        reopened.close()

    def test_only_sync_fsyncs(self, tmp_path):
        """An append is flushed, not fsynced: a hundred of them and one
        :meth:`Journal.sync` cost one fsync."""
        with Journal(str(tmp_path / "j")) as journal:
            for index in range(100):
                journal.append("event", {"index": index})
            assert journal.stats()["fsyncs"] == 0
            journal.sync()
            assert journal.stats()["fsyncs"] == 1
            journal.sync()  # nothing new to make durable
            assert journal.stats()["fsyncs"] == 1

    def test_appends_are_not_kept_in_memory(self, tmp_path):
        """``records`` is what was read at open: a long-lived writer's
        appends are on disk, not resident."""
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            journal.append("event", {"index": 0})
        with Journal(directory) as journal:
            journal.append("event", {"index": 1})
            assert journal.records == [(1, "event", {"index": 0})]
        assert len(read_back(directory)) == 2

    def test_checkpoint_replaces_the_file(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = Journal(directory)
        for index in range(8):
            journal.append("event", {"index": index})
        journal.sync()
        fsyncs = journal.stats()["fsyncs"]
        journal.checkpoint(pack({"upto": 8}))
        # the staged file and the directory, each fsynced once
        assert journal.stats()["fsyncs"] == fsyncs + 2
        assert os.listdir(directory) == ["journal.jsonl"]
        journal.append("event", {"index": 8})
        journal.close()
        # everything before the checkpoint is gone from disk
        records = read_back(directory)
        assert [r[:2] for r in records] == [(9, "checkpoint"), (10, "event")]
        assert unpack(records[0][2]) == {"upto": 8}

    def test_truncate_drops_the_suffix_after_a_boundary(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = Journal(directory)
        for index in range(6):
            journal.append("event", {"index": index})
        dropped = journal.truncate(4)
        assert dropped == 2
        # appends continue from the truncated sequence
        assert journal.append("event", {"index": "next"}) == 5
        journal.close()
        # the cut is physical: the file holds exactly what is kept
        reopened = Journal(directory)
        assert [data["index"] for _, _, data in reopened.records] == [
            0, 1, 2, 3, "next",
        ]
        assert reopened.truncated_tail is False
        reopened.close()

    def test_a_checkpoint_that_died_before_its_rename_is_discarded(
        self, tmp_path
    ):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(3):
                journal.append("event", {"index": index})
        before = read_back(directory)
        staged = os.path.join(directory, "journal.jsonl.tmp")
        with open(staged, "wb") as handle:
            handle.write(b'{"n": 4, "t": "checkpo')
        reopened = Journal(directory)
        assert reopened.records == before
        assert reopened.truncated_tail is False
        assert os.listdir(directory) == ["journal.jsonl"]
        reopened.close()

    def test_torn_final_line_is_truncated_loudly(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(4):
                journal.append("event", {"index": index})
        path = os.path.join(directory, "journal.jsonl")
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[:-7])
        reopened = Journal(directory)
        assert reopened.truncated_tail is True
        assert [data["index"] for _, _, data in reopened.records] == [
            0, 1, 2,
        ]
        # the tear was physically removed: appends land on a clean file
        reopened.append("event", {"index": "after"})
        reopened.close()
        final = Journal(directory)
        assert [data["index"] for _, _, data in final.records] == [
            0, 1, 2, "after",
        ]
        assert final.truncated_tail is False
        final.close()

    def test_mid_file_corruption_is_an_error_not_a_truncation(
        self, tmp_path
    ):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(4):
                journal.append("event", {"index": index})
        path = os.path.join(directory, "journal.jsonl")
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalError):
            Journal(directory)

    def test_checksum_guards_the_payload(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            journal.append("event", {"index": 0})
            journal.append("event", {"index": 1})
        path = os.path.join(directory, "journal.jsonl")
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"index":0', '"index":9', 1))
        with pytest.raises(JournalError):
            Journal(directory)

    def test_the_old_segmented_layout_is_refused(self, tmp_path):
        """A journal directory written before the journal was one file
        is refused by name — never read as empty and restarted."""
        directory = tmp_path / "j"
        directory.mkdir()
        (directory / "segment-000001.jsonl").write_text("")
        with pytest.raises(JournalError, match="segment-000001.jsonl"):
            Journal(str(directory))
        assert os.listdir(directory) == ["segment-000001.jsonl"]


class TestTornTailProperty:
    @settings(max_examples=30, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=200))
    def test_any_tail_tear_recovers_a_clean_prefix(self, tmp_path_factory,
                                                   cut):
        """Chop ``cut`` bytes off the end of the journal file: the
        journal reopens to an exact prefix of the original records and
        stays appendable."""
        base = tmp_path_factory.mktemp("torn")
        directory = str(base / "j")
        with Journal(directory) as journal:
            for index in range(12):
                journal.append("event", {"index": index})
        original = read_back(directory)
        path = os.path.join(directory, "journal.jsonl")
        with open(path, "rb") as handle:
            payload = handle.read()
        cut = min(cut, len(payload) - 1)
        with open(path, "wb") as handle:
            handle.write(payload[:-cut])
        # exactly the records whose content bytes survived, in order —
        # never a hole, never a corrupted parse (a cut of just the
        # final newline loses nothing: the record itself is whole)
        keep_bytes = len(payload) - cut
        expected, offset = 0, 0
        for line in payload.split(b"\n")[:-1]:
            if offset + len(line) <= keep_bytes:
                expected += 1
            offset += len(line) + 1
        reopened = Journal(directory)
        kept = len(reopened.records)
        assert kept == expected
        assert reopened.records == original[:kept]
        reopened.append("event", {"index": "again"})
        reopened.close()
        # the truncation is physical: a second open sees a clean file
        again = Journal(directory)
        assert again.truncated_tail is False
        assert len(again.records) == kept + 1
        again.close()
        shutil.rmtree(directory)


# -- crash recovery of the coordinator ----------------------------------------


class SimulatedCrash(BaseException):
    """Raised out of a journal append to model a coordinator dying with
    the record already durably written (``BaseException`` so no service
    code can swallow it)."""


def crash_run(spec, requests, *, crash_after_events=2):
    """Drive ``requests`` until the coordinator has recorded
    ``crash_after_events`` events, then kill it mid-epoch.  Returns the
    script index it died in, or ``None`` if the script finished first
    (quiescent tails record no events).  The cluster object is abandoned
    exactly as a crash would leave it — no ``stop()``, no journal
    close."""
    cluster = spec.build()
    recorded = itertools.count(1)

    def crash(event):
        if next(recorded) >= crash_after_events:
            raise SimulatedCrash()

    cluster.evidence.subscribe(crash)
    for index, request in enumerate(requests):
        try:
            cluster.request(request)
        except SimulatedCrash:
            return index
    raise AssertionError("the crash never fired — script too quiescent")


def finish_recovered(cluster, requests):
    """Re-drive the uncommitted suffix of ``requests`` on a recovered
    cluster and hand back its evidence store."""
    for request in requests[cluster.recovered_requests:]:
        cluster.request(request)
    return cluster.evidence


class TestKillTheCoordinator:
    """The acceptance criterion: a coordinator killed mid-epoch
    restarts byte-identical, for all four protocol variants."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_POLICIES))
    def test_crash_mid_epoch_stays_byte_identical(self, tmp_path, variant):
        spec = journal_spec(tmp_path, variant)
        requests = script(rounds=5, violation_every=3)
        crashed_at = crash_run(spec, requests)
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == crashed_at
            assert recovered.metrics.recoveries
            evidence = finish_recovered(recovered, requests)
            assert reference_mismatches(spec, requests, evidence) == []
            assert recovered.metrics.parity_failed == 0
        finally:
            recovered.stop()

    def test_chaos_worker_kill_after_recovery(self, tmp_path):
        """Recovery composes with the failure-tolerance machinery: a
        worker SIGKILL-equivalent *after* the restart still ends in a
        byte-identical trail (retry + respawn on top of the recovered
        state)."""
        spec = journal_spec(tmp_path)
        requests = script(rounds=6, violation_every=3)
        crash_run(spec, requests)
        probe = spec.build()
        recovered_epoch = probe.metrics.recoveries[0]["epoch"]
        probe.stop()
        chaos_spec = journal_spec(
            tmp_path,
            chaos=ChaosSpec(worker=1, epoch=recovered_epoch + 2, after=1),
        )
        recovered = chaos_spec.build()
        try:
            evidence = finish_recovered(recovered, requests)
            assert recovered.metrics.respawns, "the chaos kill never fired"
            assert reference_mismatches(spec, requests, evidence) == []
            assert recovered.metrics.parity_failed == 0
        finally:
            recovered.stop()

    def test_process_transport_cold_recovery(self, tmp_path):
        """A real multi-process fleet: the (simulated) coordinator
        death orphans its workers; the restart forks a fresh pool."""
        spec = journal_spec(tmp_path, transport="process")
        requests = script(rounds=4)
        crashed_at = crash_run(spec, requests, crash_after_events=3)
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == crashed_at
            record = recovered.metrics.recoveries[0]
            assert record["spawned_workers"] == 3
            evidence = finish_recovered(recovered, requests)
            assert reference_mismatches(spec, requests, evidence) == []
        finally:
            recovered.stop()

    def test_torn_tail_crash_recovers_at_the_earlier_boundary(
        self, tmp_path
    ):
        """A tear through the final journal line (the classic
        power-loss artifact) truncates back to the last intact commit
        boundary and the re-driven run is still byte-identical."""
        spec = journal_spec(tmp_path)
        requests = script(rounds=5)
        crash_run(spec, requests)
        path = str(tmp_path / "journal" / "journal.jsonl")
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[:-9])
        recovered = spec.build()
        try:
            assert recovered.journal.truncated_tail is True
            evidence = finish_recovered(recovered, requests)
            assert reference_mismatches(spec, requests, evidence) == []
        finally:
            recovered.stop()

    def test_recovery_with_a_different_worker_count(self, tmp_path):
        """The trail does not depend on the pool size, so neither does
        the journal: a 2-worker journal recovers onto 3 workers."""
        requests = script(rounds=5, violation_every=3)
        crashed_at = crash_run(journal_spec(tmp_path, workers=2), requests)
        spec = journal_spec(tmp_path, workers=3)
        recovered = spec.build()
        try:
            assert recovered.workers == 3
            assert recovered.recovered_requests == crashed_at
            assert recovered.metrics.recoveries[0]["spawned_workers"] == 3
            evidence = finish_recovered(recovered, requests)
            assert reference_mismatches(spec, requests, evidence) == []
        finally:
            recovered.stop()

    def test_restart_of_a_completed_run_is_a_no_op_replay(self, tmp_path):
        """Recovery is idempotent: restarting over the journal of an
        uncrashed run replays to the final boundary, serves nothing
        new, and the trail is unchanged."""
        spec = journal_spec(tmp_path)
        requests = script(rounds=4)
        cluster, evidence = run_script(spec, requests)
        baseline = [e.seq for e in evidence.events()]
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == len(requests)
            assert finish_recovered(recovered, requests) is recovered.evidence
            assert [e.seq for e in recovered.evidence.events()] == baseline
            assert reference_mismatches(spec, requests, recovered.evidence) == []
        finally:
            recovered.stop()

    def test_an_epoch_that_plans_nothing_survives_a_crash(self, tmp_path):
        """A mark on a prefix no policy covers runs an epoch that plans
        no entry and records no event, so replay cannot count epochs
        from the events: the commit carries the counter, and a
        recovered coordinator numbers its next epoch as the live one."""
        p0, p1 = serve_prefixes(2)
        spec = serve_spec(
            2,
            policies=(PolicySpec("A", ShortestRoute(), {
                "recipients": ("B",),
                "prefixes": (p0,),
                "name": "A/min->B",
            }),),
            transport="inline",
            journal=str(tmp_path / "journal"),
        )
        requests = [
            ChurnRequest(),  # audits P0, the one covered prefix
            ChurnRequest(marks=(("A", p1),)),  # an epoch with no entry
            ChurnRequest(steps=((reoriginate, ("O", p0)),)),
        ]
        cluster = spec.build()
        try:
            for request in requests[:2]:
                cluster.request(request)
            live_epoch = cluster.monitor.epoch
            assert live_epoch == 2
            assert {e.epoch for e in cluster.evidence.events()} == {1}
        finally:
            cluster.stop()
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == 2
            assert recovered.monitor.epoch == live_epoch
            evidence = finish_recovered(recovered, requests)
            assert {e.epoch for e in evidence.events()} == {1, 3}
            assert reference_mismatches(spec, requests, evidence) == []
        finally:
            recovered.stop()


def refuse_to_prove(keystore):
    raise RuntimeError("the prover is gone")


class TestFailedGroups:
    """A group that fails part-way has applied its churn and may have
    recorded events: no command re-serves that.  The coordinator
    checkpoints before it reports the failure, so a recovery restores
    what the group did and re-serves only the commits after it."""

    @pytest.mark.parametrize("failure", ["probe", "epoch"])
    def test_a_failed_group_survives_a_recovery(self, tmp_path, failure):
        requests = script(rounds=5, violation_every=3)
        if failure == "probe":
            # the epoch records its events, then the probe fails
            spec = journal_spec(tmp_path)
            failing = ChurnRequest(
                steps=requests[1].steps,
                probes=(AuditProbe(
                    "A", PREFIXES[0], "B", prover=refuse_to_prove
                ),),
            )
        else:
            # the epoch fails — its only worker dies, leaving no
            # survivor — and its pairs wait dirty for the next one
            spec = journal_spec(
                tmp_path, workers=1, chaos=ChaosSpec(worker=0, epoch=2)
            )
            failing = requests[1]
        # an empty group first: only what the failure left dirty plans
        after = [ChurnRequest(), *requests[2:]]
        live = spec.build()
        try:
            live.request(requests[0])
            with pytest.raises((RuntimeError, ClusterError)):
                live.request(failing)
            for request in after:
                live.request(request)
            trail = live.evidence
        finally:
            live.stop()
        recovered = replace(spec, chaos=None).build()
        try:
            assert recovered.metrics.recoveries[0]["re_served"] == len(after)
            assert trail_mismatches(recovered.evidence, trail) == []
        finally:
            recovered.stop()

    def test_a_command_after_an_unsettled_group_is_refused(self, tmp_path):
        """A churn record that neither a commit nor a checkpoint settles,
        followed by another command, is a group a recovery cannot
        re-serve past: refused, naming the record."""
        spec = journal_spec(tmp_path)
        run_script(spec, script(rounds=2))
        records = read_back(spec.journal)
        unsettled = next(
            seq for seq, rtype, _ in records if rtype == "churn"
        )
        shutil.rmtree(spec.journal)
        with Journal(spec.journal) as journal:
            for seq, rtype, data in records:
                if not (rtype == "commit" and seq == unsettled + 1):
                    journal.append(rtype, data)
        with pytest.raises(
            JournalError,
            match=f"the churn group of record {unsettled} was neither "
                  f"committed nor checkpointed",
        ):
            spec.build()

    @pytest.mark.parametrize("group", [
        ChurnRequest(steps=(lambda network: None,)),
        ChurnRequest(probes=(AuditProbe(
            "A", PREFIXES[0], "B", prover=lambda keystore: None
        ),)),
    ], ids=["step", "probe"])
    def test_an_unjournalable_group_is_refused_by_name(self, tmp_path, group):
        """A live callable cannot be re-served, so a journaled cluster
        refuses it before anything is applied or appended."""
        spec = journal_spec(tmp_path)
        requests = script(rounds=2)
        cluster = spec.build()
        try:
            cluster.request(requests[0])
            before = (cluster.journal.seq, len(cluster.evidence))
            with pytest.raises(
                JournalError, match="churn group cannot be journaled .*lambda"
            ):
                cluster.request(group)
            assert (cluster.journal.seq, len(cluster.evidence)) == before
            for request in requests[1:]:
                cluster.request(request)
            assert reference_mismatches(
                spec, requests, cluster.evidence
            ) == []
        finally:
            cluster.stop()


class TestFailedRecovery:
    """A recovery that fails stops the pool it forked and closes the
    journal it opened, and names the record it failed on."""

    @staticmethod
    def track_closes(monkeypatch):
        closed, close = [], Journal.close

        def tracked(journal):
            closed.append(journal.directory)
            close(journal)

        monkeypatch.setattr(Journal, "close", tracked)
        return closed

    def test_a_checkpoint_whose_network_does_not_load(
        self, tmp_path, monkeypatch
    ):
        spec = journal_spec(
            tmp_path, transport="process", journal_checkpoint_every=2
        )
        run_script(spec, script(rounds=2))
        records = read_back(spec.journal)
        shutil.rmtree(spec.journal)
        with Journal(spec.journal) as journal:
            for seq, rtype, data in records:
                if rtype == "checkpoint":
                    state = unpack(data)
                    state["network"] = b"not a pickle"
                    data, broken = pack(state), seq
                journal.append(rtype, data)
        closed = self.track_closes(monkeypatch)
        with pytest.raises(
            JournalError,
            match=f"journal record {broken}: checkpoint does not restore "
                  f"\\(UnpicklingError",
        ):
            spec.build()
        assert closed == [spec.journal]

    def test_a_command_that_does_not_re_serve(self, tmp_path, monkeypatch):
        spec = journal_spec(tmp_path, transport="process")
        run_script(spec, script(rounds=2))
        churn = next(
            seq for seq, rtype, data in read_back(spec.journal)
            if rtype == "churn"
            and any(r.steps for r in unpack(data["requests"]))
        )
        closed = self.track_closes(monkeypatch)

        def refuse(step, network):
            raise RuntimeError("the network refused")

        monkeypatch.setattr("repro.cluster.cluster.apply_step", refuse)
        forked = set(multiprocessing.active_children())
        with pytest.raises(
            JournalError,
            match=f"journal record {churn}: the command does not "
                  f"re-serve \\(RuntimeError: the network refused\\)",
        ):
            spec.build()
        assert closed == [spec.journal]
        assert set(multiprocessing.active_children()) <= forked


def checkpoint_spans(cluster):
    return [
        record["attrs"] for record in cluster.tracer.records
        if record["kind"] == "span" and record["name"] == "checkpoint"
    ]


class TestCheckpointing:
    def test_checkpoints_compact_the_journal(self, tmp_path):
        """Under ``max_events`` every checkpoint carries the bounded
        store and compacts the journal to itself: the replay suffix is
        shorter than the run."""
        spec = journal_spec(
            tmp_path, max_events=8, journal_checkpoint_every=2
        )
        requests = script(rounds=24, violation_every=5)
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            appended = cluster.journal.appended
            assert reference_mismatches(
                spec, requests, cluster.evidence
            ) == []
        finally:
            cluster.stop()
        records = read_back(spec.journal)
        assert records[0][1] == "checkpoint"
        assert len(records) < appended
        assert os.listdir(spec.journal) == ["journal.jsonl"]
        assert any(span["compacted"] for span in checkpoint_spans(cluster))

    def test_checkpoints_append_to_the_journal(self, tmp_path):
        """On the unbounded store a checkpoint never compacts: it is
        appended with the events recorded since the previous one."""
        spec = journal_spec(tmp_path, journal_checkpoint_every=2)
        requests = script(rounds=6)
        cluster, evidence = run_script(spec, requests)
        assert reference_mismatches(spec, requests, evidence) == []
        records = read_back(spec.journal)
        assert records[0][1] == "genesis"
        assert os.listdir(spec.journal) == ["journal.jsonl"]
        checkpoints = [
            unpack(data) for _, rtype, data in records
            if rtype == "checkpoint"
        ]
        assert len(checkpoints) == len(requests) // 2
        assert all("events" not in state["store"] for state in checkpoints)
        # the last checkpoint follows the last request: between them the
        # checkpoints carry the whole trail
        assert sum(len(state["events"]) for state in checkpoints) == len(
            evidence
        )
        spans = checkpoint_spans(cluster)
        assert len(spans) == len(checkpoints)
        assert [
            (span["events"], span["compacted"]) for span in spans
        ] == [(len(state["events"]), False) for state in checkpoints]

    def test_a_checkpoint_carries_only_its_interval(self, tmp_path):
        """No checkpoint carries an event recorded before the previous
        checkpoint: each holds exactly the seqs after the one before."""
        spec = journal_spec(tmp_path, journal_checkpoint_every=2)
        _, evidence = run_script(spec, script(rounds=6, violation_every=3))
        ended, carried = 0, []
        for _, rtype, data in read_back(spec.journal):
            if rtype == "checkpoint":
                state = unpack(data)
                seqs = [event.seq for event in state["events"]]
                assert seqs == list(range(ended + 1, state["store"]["seq"] + 1))
                ended = state["store"]["seq"]
                carried.extend(seqs)
        assert carried == [event.seq for event in evidence.events()]

    def test_only_boundaries_fsync(self, tmp_path):
        """One fsync for the genesis, for each commit and adjudication,
        and one for each appended checkpoint — never one for an event
        or a churn record."""
        spec = journal_spec(tmp_path, journal_checkpoint_every=2)
        requests = script(rounds=5, violation_every=3)
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            cluster.request(AdjudicateRequest())
            # each churn request commits alone and an adjudication is a
            # boundary of its own; every second boundary checkpoints
            checkpoints = (len(requests) + 1) // 2
            assert checkpoints >= 2
            assert cluster.journal.stats()["fsyncs"] == (
                1 + len(requests) + 1 + checkpoints
            )
        finally:
            cluster.stop()

    def test_an_adjudication_advances_the_cadence(self, tmp_path):
        """Regression: only churn commits counted toward the cadence,
        so after the last one every adjudication stayed in the replay
        suffix and a recovery re-ran the judge for each."""
        spec = journal_spec(tmp_path, journal_checkpoint_every=2)
        cluster = spec.build()
        try:
            for request in script(rounds=1)[:2]:
                cluster.request(request)
            for _ in range(6):
                cluster.request(AdjudicateRequest())
        finally:
            cluster.stop()
        boundaries = [
            rtype for _, rtype, _ in read_back(spec.journal)
            if rtype in ("commit", "adjudicate", "checkpoint")
        ]
        assert boundaries == (
            ["commit", "commit", "checkpoint"]
            + ["adjudicate", "adjudicate", "checkpoint"] * 3
        )

    def test_a_checkpoint_costs_the_same_however_long_the_trail(
        self, tmp_path
    ):
        """Count, not clock: the last checkpoint of a three-times-longer
        run carries no more events and is hardly larger."""
        sizes = {}
        for rounds in (4, 12):
            spec = journal_spec(
                tmp_path / str(rounds), journal_checkpoint_every=2
            )
            run_script(spec, script(rounds=rounds))
            *_, data = [
                data for _, rtype, data in read_back(spec.journal)
                if rtype == "checkpoint"
            ]
            assert "events" not in unpack(data)["store"]
            sizes[rounds] = len(data)
        assert sizes[12] <= 1.1 * sizes[4]

    def test_recovery_from_a_checkpointed_journal(self, tmp_path):
        spec = journal_spec(tmp_path, journal_checkpoint_every=2)
        requests = script(rounds=6, violation_every=3)
        crashed_at = crash_run(spec, requests, crash_after_events=8)
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == crashed_at
            evidence = finish_recovered(recovered, requests)
            assert reference_mismatches(spec, requests, evidence) == []
        finally:
            recovered.stop()

    def test_the_cadence_survives_a_recovery(self, tmp_path):
        """A recovery that re-serves k boundaries past the last
        checkpoint leaves the next one N − k boundaries away — at the
        commit an uncrashed run checkpoints at — so a second crash never
        re-serves N groups or more."""
        requests = script(rounds=6)[:8]
        assert len(requests) == 8

        def boundaries(directory):
            return [
                rtype for _, rtype, _ in read_back(directory)
                if rtype in ("commit", "checkpoint")
            ]

        whole = journal_spec(tmp_path / "whole", journal_checkpoint_every=4)
        run_script(whole, requests)
        spec = journal_spec(tmp_path / "crashed", journal_checkpoint_every=4)
        cluster = spec.build()
        for request in requests[:6]:
            cluster.request(request)
        # abandoned two boundaries past its checkpoint, as a crash leaves it
        recovered = spec.build()
        try:
            assert recovered.metrics.recoveries[0]["re_served"] == 2
            finish_recovered(recovered, requests)
        finally:
            recovered.stop()
        assert boundaries(spec.journal) == boundaries(whole.journal)

    def test_a_checkpoint_that_skips_events_is_refused(self, tmp_path):
        """A checkpoint's events must continue the previous checkpoint's
        seq: one that drops its first event is refused, naming both."""
        spec = journal_spec(tmp_path, journal_checkpoint_every=2)
        run_script(spec, script(rounds=2))
        records = read_back(spec.journal)
        shutil.rmtree(spec.journal)
        checkpoints = 0
        with Journal(spec.journal) as journal:
            for _, rtype, data in records:
                if rtype == "checkpoint":
                    checkpoints += 1
                    state = unpack(data)
                    if checkpoints == 2:
                        ended = state["events"][0].seq - 1
                        first = state["events"][1].seq
                        state["events"] = state["events"][1:]
                        data = pack(state)
                journal.append(rtype, data)
        assert checkpoints >= 2
        with pytest.raises(
            JournalError,
            match=f"checkpoint events start at seq {first}, the previous "
                  f"checkpoint ended at seq {ended}",
        ):
            spec.build()


class TestBoundedJournal:
    """Under ``max_events`` every checkpoint compacts the journal, so
    it stays within a bound of the store — and still recovers
    byte-identically."""

    MAX_EVENTS = 8

    def spec(self, tmp_path):
        return journal_spec(
            tmp_path,
            max_events=self.MAX_EVENTS,
            journal_checkpoint_every=2,
        )

    def requests(self):
        return script(rounds=24, violation_every=5)

    @staticmethod
    def events_held(records):
        """The events a journal holds: its event records plus those a
        compacted head carries."""
        _, head_type, head = records[0]
        carried = (
            len(unpack(head)["store"]["events"])
            if head_type == "checkpoint" else 0
        )
        return carried + sum(rtype == "event" for _, rtype, _ in records)

    def test_the_journal_stays_within_three_times_the_bound(self, tmp_path):
        spec = self.spec(tmp_path)
        requests = self.requests()
        assert len(requests) >= 20
        # a request writes at most one checkpoint, so reading the file
        # after each one sees every checkpoint record ever written
        held, written = [], {}
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
                records = read_back(spec.journal)
                held.append(self.events_held(records))
                written.update(
                    (seq, data) for seq, rtype, data in records
                    if rtype == "checkpoint"
                )
        finally:
            cluster.stop()
        assert max(held) < 3 * self.MAX_EVENTS
        assert cluster.evidence.evicted > 0
        assert reference_mismatches(spec, requests, cluster.evidence) == []
        # the span reports the packed record it wrote, and what it holds
        expected = []
        for seq in sorted(written):
            store = unpack(written[seq])["store"]
            expected.append((
                len(written[seq]),
                len(store.get("events", ())),
                "events" in store,
            ))
        assert [
            (span["bytes"], span["events"], span["compacted"])
            for span in checkpoint_spans(cluster)
        ] == expected
        assert expected and all(compacted for _, _, compacted in expected)

    def test_a_crash_after_compaction_recovers_byte_identical(
        self, tmp_path
    ):
        spec = self.spec(tmp_path)
        requests = self.requests()
        reference = spec.build_monitor()
        drive_monitor(reference, requests)
        crashed_at = crash_run(spec, requests, crash_after_events=60)
        assert read_back(spec.journal)[0][1] == "checkpoint"
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == crashed_at
            evidence = finish_recovered(recovered, requests)
            assert reference_mismatches(spec, requests, evidence) == []
            assert evidence.evicted == reference.evidence.evicted
        finally:
            recovered.stop()


class TestRecoveredRulings:
    """§2.3 Evidence: a violation the judge upheld stays upheld.  A
    recovered coordinator adjudicates and slashes exactly as the live
    one did — its replay judges with every event's keys registered."""

    @pytest.mark.parametrize("checkpoint_every", [0, 1])
    def test_recovered_adjudication_matches_the_live_one(
        self, tmp_path, checkpoint_every
    ):
        spec = serve_spec(
            4,
            ledger=True,
            transport="inline",
            journal=str(tmp_path / "journal"),
            journal_checkpoint_every=checkpoint_every,
        )
        requests = churn_script(
            serve_prefixes(4), rounds=5, violation_every=4
        )
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            live = cluster.request(AdjudicateRequest()).payload
            assert any(confirmed(ruling) for ruling in live.values())
            assert cluster.ledger.trust_level("A") is TrustLevel.QUARANTINED
            trust, head = cluster.ledger.trust_map(), cluster.ledger.history.head
        finally:
            cluster.stop()
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == len(requests) + 1
            again = recovered.request(AdjudicateRequest()).payload
            assert again == live
            assert recovered.ledger.trust_map() == trust
            assert recovered.ledger.history.head == head
        finally:
            recovered.stop()


    def test_recovery_does_not_redo_what_a_checkpoint_covers(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint supersedes every command before it: recovery
        re-serves none of them — the judge never re-rules a covered
        adjudication, and no ledger or reuse cache folds an event the
        checkpoint already counted."""
        spec = serve_spec(
            4,
            ledger=True,
            transport="inline",
            journal=str(tmp_path / "journal"),
            journal_checkpoint_every=1,
        )
        requests = churn_script(
            serve_prefixes(4), rounds=5, violation_every=4
        )
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            cluster.request(AdjudicateRequest())
            trust = cluster.ledger.trust_map()
            trail = len(cluster.evidence)
        finally:
            cluster.stop()
        records = read_back(spec.journal)
        assert records[-1][1] == "checkpoint"
        assert any(rtype == "adjudicate" for _, rtype, _ in records)
        redone = []
        monkeypatch.setattr(
            "repro.cluster.requests.answer_adjudicate",
            lambda *args: redone.append("judge"),
        )
        monkeypatch.setattr(
            "repro.audit.monitor.absorb_verdict",
            lambda *args: redone.append("cache"),
        )
        monkeypatch.setattr(
            "repro.ledger.TrustLedger.observe",
            lambda *args: redone.append("ledger"),
        )
        with Journal(spec.journal) as journal:
            state = recover_state(spec, journal)
        assert redone == []
        assert state.commands == ()
        assert len(state.store) == trail
        assert state.ledger.trust_map() == trust


class TestRecoveryMakesNoKey:
    """The journal's head carries the coordinator's key table, so a
    recovery loads every key instead of making it — and, holding them,
    still upholds a violation (an empty keystore once un-slashed a
    guilty AS)."""

    @pytest.mark.parametrize("max_events", [None, 8])
    def test_recovery_loads_the_keys_and_still_convicts(
        self, tmp_path, monkeypatch, max_events
    ):
        spec = serve_spec(
            4,
            ledger=True,
            transport="inline",
            max_events=max_events,
            journal=str(tmp_path / "journal"),
            journal_checkpoint_every=2,
        )
        requests = churn_script(
            serve_prefixes(4), rounds=8, violation_every=4
        )
        cluster = spec.build()
        try:
            assert cluster.snapshot()["keys_generated"] == 5
            for request in requests:
                cluster.request(request)
        finally:
            cluster.stop()
        head = "genesis" if max_events is None else "checkpoint"
        assert read_back(spec.journal)[0][1] == head

        def refuse(*args, **kwargs):
            raise AssertionError("recovery generated a key")

        monkeypatch.setattr(rsa, "generate_keypair", refuse)
        recovered = spec.build()
        try:
            assert recovered.recovered_requests == len(requests)
            assert recovered.metrics.recoveries[0]["keys_generated"] == 0
            assert recovered.snapshot()["keys_generated"] == 0
            rulings = recovered.request(AdjudicateRequest()).payload
            assert any(confirmed(ruling) for ruling in rulings.values())
            assert recovered.ledger.trust_level("A") is TrustLevel.QUARANTINED
        finally:
            recovered.stop()


class TestJournalFormat:
    """A journal says which dialect it speaks, and a build refuses the
    ones it does not read — by name, before replaying anything."""

    def test_a_format_less_genesis_is_refused(self, tmp_path):
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            # what a format-1 coordinator wrote: no "format" key
            journal.append("genesis", {
                "key_bits": spec.key_bits,
                "seed": repr(spec.rng_seed),
                "policies": ["A/min->B"],
                "workers": 3,
                "placement": {"strategy": "ConsistentHash", "shards": 3},
            })
            journal.append("commit", {"requests": 1})
        with pytest.raises(JournalError, match=refusal(1)):
            spec.build()

    def test_a_different_format_number_is_refused(self, tmp_path):
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            journal.append("genesis", {"format": 12})
        with Journal(spec.journal) as journal:
            with pytest.raises(JournalError, match=refusal(12)):
                recover_state(spec, journal)

    @pytest.mark.parametrize("found, records", [
        # format 2 checkpoints pickle pair-keyed RIBs: they would load
        # and then die with an AttributeError on the first decision
        pytest.param(2, (), id="2"),
        # format 3 trails hold per-disclosure-signed monitored rounds;
        # this build's rounds sign one batch root, so replaying a
        # format-3 trail next to fresh rounds would mix two protocols
        pytest.param(3, (), id="3"),
        # format 4 rounds sign receipts, statement and attestation one by
        # one; this build's prover signs them all as leaves of one root
        pytest.param(4, (), id="4"),
        # format 5 checkpoints always carry the whole trail; this build
        # reads each checkpoint's interval, so a format-5 journal with an
        # appended checkpoint would replay its events twice
        pytest.param(5, (), id="5"),
        # a format-6 head carries no key table, so its recovery would
        # make every key again
        pytest.param(6, (), id="6"),
        # a format-7 journal writes a plan record per epoch and commits
        # without the epoch counter, which this build reads from the
        # commit
        pytest.param(7, (("plan", {"epoch": 1, "entries": 0}),), id="7"),
        # a format-8 journal keeps the trail in per-event records and
        # journals a churn group's steps alone, so its commands cannot
        # be re-served
        pytest.param(8, (
            ("churn", {"steps": pack(())}),
            ("event", {"e": pack(None)}),
        ), id="8"),
        # a format-9 checkpoint pickles a network without a meter slot,
        # so the first message it sent after a recovery would raise
        pytest.param(9, (), id="9"),
        # a format-10 trail's events carry transcripts and no wire
        # digest, so every recovered event would differ from a fresh
        # run's in the digest the parity oracle compares
        pytest.param(10, (), id="10"),
    ])
    def test_an_old_format_journal_is_refused_by_name(
        self, tmp_path, found, records
    ):
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            journal.append("genesis", {"format": found})
            for rtype, body in records:
                journal.append(rtype, body)
            journal.append("commit", {"requests": 1})
        with pytest.raises(JournalError, match=refusal(found)):
            spec.build()

    def test_a_removed_record_type_is_refused(self, tmp_path):
        spec = journal_spec(tmp_path)
        run_script(spec, script(rounds=1))
        with Journal(spec.journal) as journal:
            journal.append("reshard", {"placement": "", "workers": 4})
            journal.append("commit", {"requests": 0})
        with pytest.raises(
            JournalError, match="unknown journal record type 'reshard'"
        ):
            spec.build()

    def test_a_journal_without_a_genesis_head_is_refused(self, tmp_path):
        """Regression: a journal headed by neither a genesis nor a
        checkpoint was emptied and then reused with no format check."""
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            journal.append("churn", {"steps": pack(())})
            journal.append("event", {"e": pack(None)})
        with pytest.raises(
            JournalError, match="starts with record 1 of type 'churn'"
        ):
            spec.build()

    def test_a_segmented_journal_is_refused_by_the_cluster(self, tmp_path):
        spec = journal_spec(tmp_path)
        os.makedirs(spec.journal)
        with open(
            os.path.join(spec.journal, "segment-000001.jsonl"), "w"
        ) as handle:
            handle.write("")
        with pytest.raises(JournalError, match="segment-000001.jsonl"):
            spec.build()

    def test_genesis_stamps_the_format(self, tmp_path):
        spec = journal_spec(tmp_path)
        run_script(spec, script(rounds=1))
        records = read_back(spec.journal)
        seq, rtype, data = records[0]
        assert (rtype, data["format"]) == ("genesis", 11)
        assert "workers" not in data
        assert [asn for asn, _ in unpack(data["keys"])] == [
            "A", "N1", "N2", "N3", "B",
        ]
        # a command log: the commit carries the epoch counter, and no
        # record plans or holds an event
        assert {rtype for _, rtype, _ in records} == {
            "genesis", "churn", "commit",
        }
        commits = [data for _, t, data in records if t == "commit"]
        assert [data["epoch"] for data in commits] == [1, 2, 3]


# -- replay properties --------------------------------------------------------


def journaled_records(tmp_path_factory, checkpoint_every=0):
    directory = str(tmp_path_factory.mktemp("replay") / "journal")
    spec = make_spec(
        "minimum",
        journal=directory,
        journal_checkpoint_every=checkpoint_every,
    )
    requests = script(rounds=4, violation_every=3)
    run_script(spec, requests)
    return spec, read_back(directory), directory


class TestReplayProperties:
    """Every property runs over two journals of one script: one with no
    checkpoint, and one whose appended checkpoints sit mid-stream."""

    @pytest.fixture(scope="class")
    def replay_inputs(self, tmp_path_factory):
        return [
            journaled_records(tmp_path_factory, checkpoint_every=every)
            for every in (0, 2)
        ]

    def test_the_journal_ends_on_a_commit_boundary(self, replay_inputs):
        for _, records, _ in replay_inputs:
            assert records[-1][1] in BOUNDARY_TYPES
            assert records[0][1] == "genesis"
        _, checkpointed, _ = replay_inputs[1]
        assert any(rtype == "checkpoint" for _, rtype, _ in checkpointed)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_replay_is_split_invariant(self, replay_inputs, data):
        """Feeding the record stream in two arbitrary chunks reaches
        the same recovery point — trail, checkpoint and command list —
        as feeding it whole: replay carries no hidden cross-call
        state."""
        spec, records, _ = data.draw(st.sampled_from(replay_inputs))
        split = data.draw(
            st.integers(min_value=0, max_value=len(records))
        )
        whole = JournalReplayer(spec)
        for seq, rtype, payload in records:
            whole.feed(seq, rtype, payload)
        chunked = JournalReplayer(spec)
        for seq, rtype, payload in records[:split]:
            chunked.feed(seq, rtype, payload)
        for seq, rtype, payload in records[split:]:
            chunked.feed(seq, rtype, payload)
        assert chunked.digest() == whole.digest()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_replay_is_prefix_closed(self, replay_inputs, data):
        """Every prefix that ends on a commit boundary is itself a
        valid recovery point: a coordinator recovered from it re-serves
        the commands after its last checkpoint, the client re-drives
        the rest of the script, and the trail is the uncrashed run's
        (the torn-tail truncation rule is safe at *any* boundary, not
        just the final one)."""
        spec, records, directory = data.draw(st.sampled_from(replay_inputs))
        requests = script(rounds=4, violation_every=3)
        boundaries = [
            index
            for index, (_, rtype, _) in enumerate(records)
            if rtype in BOUNDARY_TYPES
        ]
        pick = data.draw(
            st.integers(min_value=0, max_value=len(boundaries) - 1)
        )
        cut = boundaries[pick] + 1
        committed = sum(
            payload["requests"]
            for _, rtype, payload in records[:cut] if rtype == "commit"
        )
        copy = os.path.join(tempfile.mkdtemp(), "journal")
        try:
            shutil.copytree(directory, copy)
            with Journal(copy) as journal:
                journal.truncate(records[cut - 1][0])
            recovered = replace(spec, journal=copy).build()
            try:
                assert recovered.recovered_requests == committed
                evidence = finish_recovered(recovered, requests)
            finally:
                recovered.stop()
        finally:
            shutil.rmtree(os.path.dirname(copy))
        assert reference_mismatches(spec, requests, evidence) == []

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_recovery_skips_only_what_a_checkpoint_covers(
        self, replay_inputs, data
    ):
        """At any boundary, :func:`recover_state` — which truncates the
        interrupted suffix and releases the records — reaches the
        recovery point that feeding every record to that boundary
        reaches."""
        spec, records, directory = data.draw(st.sampled_from(replay_inputs))
        boundaries = [
            index
            for index, (_, rtype, _) in enumerate(records)
            if rtype in BOUNDARY_TYPES
        ]
        cut = boundaries[
            data.draw(st.integers(min_value=0, max_value=len(boundaries) - 1))
        ] + 1
        whole = JournalReplayer(spec)
        for seq, rtype, payload in records[:cut]:
            whole.feed(seq, rtype, payload)
        copy = os.path.join(tempfile.mkdtemp(), "journal")
        try:
            shutil.copytree(directory, copy)
            with Journal(copy) as journal:
                journal.truncate(records[cut - 1][0])
            with Journal(copy) as journal:
                recovered = recover_state(spec, journal)
                assert journal.records == []  # released once replayed
        finally:
            shutil.rmtree(os.path.dirname(copy))
        assert recovered.digest() == whole.digest()
