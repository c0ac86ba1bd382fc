"""Durability: the write-ahead journal and coordinator crash recovery.

The invariant under test everywhere: a coordinator that dies at an
arbitrary point — mid-epoch, with a torn final journal line —
restarts from the journal at the last commit boundary, re-drives
only the uncommitted suffix of the script, and leaves an evidence trail
**byte-identical** to a run that never crashed.  :mod:`repro.journal`
unit tests pin the on-disk format (checksummed JSONL segments, torn-tail
truncation, checkpoint compaction); Hypothesis drives arbitrary
byte-level tears and arbitrary replay splits.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ChaosSpec
from repro.cluster.workload import churn_script, reference_mismatches
from repro.journal import (
    BOUNDARY_TYPES,
    Journal,
    JournalError,
    JournalReplayer,
    pack,
    recover_state,
    unpack,
)

from test_cluster import PREFIXES, VARIANT_POLICIES, make_spec, run_script


def journal_spec(tmp_path, variant="minimum", **overrides):
    options = dict(journal=str(tmp_path / "journal"))
    options.update(overrides)
    return make_spec(variant, **options)


def script(rounds=5, violation_every=0):
    return churn_script(
        PREFIXES, rounds=rounds, violation_every=violation_every
    )


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

    def test_segments_rotate_and_reload_in_order(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory, segment_max_records=3) as journal:
            for index in range(10):
                journal.append("event", {"index": index})
            assert journal.stats()["segments"] == 4
        reopened = Journal(directory)
        assert [data["index"] for _, _, data in reopened.records] == list(
            range(10)
        )
        reopened.close()

    def test_checkpoint_compacts_older_segments(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = Journal(directory, segment_max_records=3)
        for index in range(8):
            journal.append("event", {"index": index})
        journal.checkpoint(pack({"upto": 8}))
        journal.append("event", {"index": 8})
        # everything before the checkpoint is gone from disk and from
        # the replay suffix
        assert journal.records[0][1] == "checkpoint"
        assert unpack(journal.records[0][2]) == {"upto": 8}
        assert [r[1] for r in journal.records] == ["checkpoint", "event"]
        assert journal.stats()["segments"] <= 2
        reopened = Journal(directory)
        assert [r[:2] for r in reopened.records] == [
            r[:2] for r in journal.records
        ]
        journal.close()
        reopened.close()

    def test_truncate_drops_the_suffix_after_a_boundary(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = Journal(directory)
        for index in range(6):
            journal.append("event", {"index": index})
        dropped = journal.truncate(4)
        assert dropped == 2
        assert [data["index"] for _, _, data in journal.records] == [
            0, 1, 2, 3,
        ]
        # appends continue from the truncated sequence
        assert journal.append("event", {"index": "next"}) == 5
        journal.close()

    def test_torn_final_line_is_truncated_loudly(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(4):
                journal.append("event", {"index": index})
        path = os.path.join(directory, "segment-000001.jsonl")
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
        path = os.path.join(directory, "segment-000001.jsonl")
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
        path = os.path.join(directory, "segment-000001.jsonl")
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"index":0', '"index":9', 1))
        with pytest.raises(JournalError):
            Journal(directory)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "a"), fsync_batch=0)
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "b"), segment_max_records=1)


class TestTornTailProperty:
    @settings(max_examples=30, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=200))
    def test_any_tail_tear_recovers_a_clean_prefix(self, tmp_path_factory,
                                                   cut):
        """Chop ``cut`` bytes off the end of the final segment: the
        journal reopens to an exact prefix of the original records and
        stays appendable."""
        base = tmp_path_factory.mktemp("torn")
        directory = str(base / "j")
        with Journal(directory) as journal:
            for index in range(12):
                journal.append("event", {"index": index})
            original = list(journal.records)
        path = os.path.join(directory, "segment-000001.jsonl")
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
    """Drive ``requests`` until the journal has absorbed
    ``crash_after_events`` folded-event appends, then kill the
    coordinator mid-epoch.  Returns the script index it died in, or
    ``None`` if the script finished first (quiescent tails fold no
    events).  The cluster object is abandoned exactly as a crash would
    leave it — no ``stop()``, no journal close."""
    cluster = spec.build()
    original = cluster.journal.append
    state = {"events": 0}

    def crashing_append(rtype, data):
        seq = original(rtype, data)
        if rtype == "event":
            state["events"] += 1
            if state["events"] >= crash_after_events:
                raise SimulatedCrash()
        return seq

    cluster.journal.append = crashing_append
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
        directory = str(tmp_path / "journal")
        segments = sorted(
            name for name in os.listdir(directory)
            if name.endswith(".jsonl")
        )
        path = os.path.join(directory, segments[-1])
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


class TestCheckpointing:
    def test_checkpoints_compact_the_journal(self, tmp_path):
        spec = journal_spec(
            tmp_path,
            journal_checkpoint_every=2,
            journal_segment_records=32,
        )
        requests = script(rounds=6)
        cluster = spec.build()
        try:
            for request in requests:
                cluster.request(request)
            stats = cluster.journal.stats()
            # without compaction this run rotates through many
            # 32-record segments; checkpoints keep the tail short
            assert stats["segments"] <= 2
            assert reference_mismatches(
                spec, requests, cluster.evidence
            ) == []
        finally:
            cluster.stop()

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
        with pytest.raises(
            JournalError, match="journal format 1, this build reads 4"
        ):
            spec.build()

    def test_a_different_format_number_is_refused(self, tmp_path):
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            journal.append("genesis", {"format": 7})
            with pytest.raises(
                JournalError, match="journal format 7, this build reads 4"
            ):
                recover_state(spec, journal)

    def test_a_flat_rib_journal_is_refused(self, tmp_path):
        # format 2 checkpoints pickle pair-keyed RIBs: they would load
        # and then die with an AttributeError on the first decision
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            journal.append("genesis", {"format": 2})
            journal.append("commit", {"requests": 1})
        with pytest.raises(
            JournalError, match="journal format 2, this build reads 4"
        ):
            spec.build()

    def test_a_format_3_journal_is_refused_by_name(self, tmp_path):
        # format 3 trails hold per-disclosure-signed monitored rounds;
        # this build's rounds sign one batch root, so replaying a
        # format-3 trail next to fresh rounds would mix two protocols
        spec = journal_spec(tmp_path)
        with Journal(spec.journal) as journal:
            journal.append("genesis", {"format": 3})
            journal.append("commit", {"requests": 1})
        with pytest.raises(
            JournalError, match="journal format 3, this build reads 4"
        ):
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

    def test_genesis_stamps_the_format(self, tmp_path):
        spec = journal_spec(tmp_path)
        run_script(spec, script(rounds=1))
        with Journal(spec.journal) as journal:
            seq, rtype, data = journal.records[0]
        assert (rtype, data["format"]) == ("genesis", 4)
        assert "workers" not in data


# -- replay properties --------------------------------------------------------


def journaled_records(tmp_path_factory):
    base = tmp_path_factory.mktemp("replay")
    spec = make_spec("minimum", journal=str(base / "journal"))
    requests = script(rounds=4, violation_every=3)
    cluster, _ = run_script(spec, requests)
    journal = Journal(str(base / "journal"))
    records = list(journal.records)
    journal.close()
    return spec, records


class TestReplayProperties:
    @pytest.fixture(scope="class")
    def replay_input(self, tmp_path_factory):
        return journaled_records(tmp_path_factory)

    def test_the_journal_ends_on_a_commit_boundary(self, replay_input):
        _, records = replay_input
        assert records[-1][1] in BOUNDARY_TYPES
        assert records[0][1] in ("genesis", "checkpoint")

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_replay_is_split_invariant(self, replay_input, data):
        """Feeding the record stream in two arbitrary chunks reaches
        the same state digest as feeding it whole — replay carries no
        hidden cross-call state."""
        spec, records = replay_input
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

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_replay_is_prefix_closed(self, replay_input, data):
        """Every prefix that ends on a commit boundary is itself a
        valid recovery point: replaying it, then the remainder, equals
        replaying everything (the torn-tail truncation rule is safe at
        *any* boundary, not just the final one)."""
        spec, records = replay_input
        boundaries = [
            index
            for index, (_, rtype, _) in enumerate(records)
            if rtype in BOUNDARY_TYPES
        ]
        pick = data.draw(
            st.integers(min_value=0, max_value=len(boundaries) - 1)
        )
        cut = boundaries[pick] + 1
        replayer = JournalReplayer(spec)
        for seq, rtype, payload in records[:cut]:
            replayer.feed(seq, rtype, payload)
        for seq, rtype, payload in records[cut:]:
            replayer.feed(seq, rtype, payload)
        whole = JournalReplayer(spec)
        for seq, rtype, payload in records:
            whole.feed(seq, rtype, payload)
        assert replayer.digest() == whole.digest()
