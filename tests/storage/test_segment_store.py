"""Durability tests for the on-disk segmented store.

Covers the failure edges the in-memory store never sees: torn/truncated
column files, corrupt manifests, sealed-segment immutability, surviving a
restart, and crash-during-seal recovery (an orphan staging directory left by
a crash between column-file publish and manifest publish must be cleaned up,
never half-read).
"""

from __future__ import annotations

import functools
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.errors import SegmentError
from repro.scenarios import CrashRecoveryHarness, generate_campaigns
from repro.storage.loader import AuditStore
from repro.storage.relational.database import RelationalDatabase
from repro.storage.relational.expression import Between, Column, Comparison, Like, Literal
from repro.storage.relational.query import SelectQuery
from repro.storage.segment import (
    MANIFEST_NAME,
    ColumnReader,
    SegmentedRelationalDatabase,
    write_int_column,
    write_string_column,
)


def _trace(events: int = 40) -> AuditTrace:
    """A small two-process trace with strictly increasing timestamps."""
    entities = [
        ProcessEntity(entity_id=1, exename="/bin/tar", pid=10),
        ProcessEntity(entity_id=2, exename="/usr/bin/curl", pid=11),
        FileEntity(entity_id=3, name="/etc/passwd"),
        FileEntity(entity_id=4, name="/tmp/upload.tar"),
    ]
    rows = [
        SystemEvent(
            event_id=index + 1,
            subject_id=1 if index % 2 == 0 else 2,
            object_id=3 if index % 3 == 0 else 4,
            operation=Operation.READ if index % 2 == 0 else Operation.WRITE,
            object_type=EntityType.FILE,
            start_time=1_000 + index * 100,
            end_time=1_050 + index * 100,
            amount=64,
        )
        for index in range(events)
    ]
    return AuditTrace(entities=entities, events=rows)


def _join_query() -> SelectQuery:
    query = SelectQuery()
    query.add_table("events", "e")
    query.add_table("entities", "s")
    query.add_table("entities", "o")
    query.add_join("e", "srcid", "s", "id")
    query.add_join("e", "dstid", "o", "id")
    query.add_filter("e", Comparison(Column("optype"), "=", Literal("read")))
    query.add_filter("s", Like(Column("exename"), "%tar%"))
    query.add_output("s", "exename", "subject")
    query.add_output("o", "name", "object")
    query.add_output("e", "id", "event")
    return query


class TestColumnCodecs:
    def test_int_roundtrip_with_nulls(self, tmp_path):
        path = tmp_path / "events.starttime.col"
        values = [5, None, -3, 0, 2**40, None]
        stats = write_int_column(path, values)
        assert stats["rows"] == 6 and stats["nulls"] == 2
        assert ColumnReader(path).values() == values

    def test_string_roundtrip_dictionary_encoded(self, tmp_path):
        path = tmp_path / "events.optype.col"
        values = ["read", "write", "read", None, "read"]
        stats = write_string_column(path, values)
        assert stats["distinct"] == 2
        assert ColumnReader(path).values() == values

    def test_truncated_column_file_is_a_segment_error(self, tmp_path):
        path = tmp_path / "torn.col"
        write_int_column(path, list(range(100)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write
        with pytest.raises(SegmentError):
            ColumnReader(path).values()

    def test_flipped_bit_fails_the_checksum(self, tmp_path):
        path = tmp_path / "corrupt.col"
        write_int_column(path, list(range(100)))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SegmentError):
            ColumnReader(path).values()

    def test_wrong_magic_rejected_on_open(self, tmp_path):
        path = tmp_path / "junk.col"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(SegmentError):
            ColumnReader(path)


class TestManifestCorruption:
    def test_corrupt_manifest_is_a_segment_error(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        database.load_trace(_trace())
        database.seal()
        (tmp_path / MANIFEST_NAME).write_text("{ not json", encoding="utf-8")
        with pytest.raises(SegmentError):
            SegmentedRelationalDatabase(tmp_path, segment_rows=8)

    def test_manifest_version_mismatch_rejected(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        database.load_trace(_trace())
        database.seal()
        manifest_path = tmp_path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["version"] = 999
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SegmentError):
            SegmentedRelationalDatabase(tmp_path, segment_rows=8)

    def test_tampered_pruning_stats_are_rejected(self, tmp_path):
        """Regression: an edited ``min/max_starttime`` is still valid JSON, and
        trusting it silently pruned a live segment (28 of 32 rows returned)."""
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        database.load_trace(_trace(events=64))
        database.seal()
        assert len(database.execute(_windowed_join_query()).rows) == 32
        manifest_path = tmp_path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        [first] = [entry for entry in payload["segments"] if entry["name"] == "seg-00000"]
        first["min_starttime"] = first["max_starttime"] = 10**12
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SegmentError, match="CRC32"):
            SegmentedRelationalDatabase(tmp_path, segment_rows=8)

    def test_manifest_referencing_missing_segment_rejected(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        database.load_trace(_trace())
        database.seal()
        victim = tmp_path / database.segment_readers[0].name
        for child in victim.iterdir():
            child.unlink()
        victim.rmdir()
        with pytest.raises(SegmentError):
            SegmentedRelationalDatabase(tmp_path, segment_rows=8)

    def test_torn_column_in_live_segment_surfaces_on_read(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        database.load_trace(_trace())
        database.seal()
        segment_dir = tmp_path / database.segment_readers[0].name
        column = segment_dir / "events.starttime.col"
        column.write_bytes(column.read_bytes()[:10])
        reopened = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        with pytest.raises(SegmentError):
            reopened.execute(_join_query())


class TestSealedSegmentImmutability:
    def test_appends_never_touch_sealed_files(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=16)
        database.load_trace(_trace(events=40))
        assert database.sealed_segments, "seal threshold should have been crossed"
        snapshot = {
            path: path.read_bytes()
            for segment in database.segment_readers
            for path in sorted((tmp_path / segment.name).iterdir())
        }
        database.append_batch(
            [], [SystemEvent(900, 1, 4, Operation.WRITE, EntityType.FILE, 99_000, 99_100, 64)]
        )
        database.seal()
        for path, blob in snapshot.items():
            assert path.read_bytes() == blob, f"sealed file {path.name} was rewritten"

    def test_each_seal_persists_only_entities_added_since_the_last(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=1_000)
        database.load_trace(_trace(events=10))
        database.seal()
        assert database.seal() is None  # nothing unsealed
        database.append_batch([FileEntity(entity_id=5, name="/tmp/late")], [])
        database.seal()
        assert [reader.rows("entities") for reader in database.segment_readers] == [4, 1]
        assert database.statistics()["events"]["memtable_rows"] == 0
        reopened = SegmentedRelationalDatabase(tmp_path, segment_rows=1_000)
        assert sorted(row["id"] for row in reopened.table("entities").scan()) == [1, 2, 3, 4, 5]

    def test_results_match_in_memory_store(self, tmp_path):
        trace = _trace(events=60)
        memory = RelationalDatabase()
        memory.load_trace(trace)
        segmented = SegmentedRelationalDatabase(tmp_path, segment_rows=16)
        segmented.load_trace(trace)
        expected = memory.execute(_join_query())
        actual = segmented.execute(_join_query())
        assert sorted(actual.rows) == sorted(expected.rows)

    def test_time_window_prunes_segments(self, tmp_path):
        """A window over the middle tenth of the timeline prunes at least half
        of ~32 sealed segments, and answers like the in-memory store."""
        trace = _trace(events=20_000)
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=len(trace.events) // 32)
        database.load_trace(trace)
        database.seal()
        assert database.sealed_segments >= 30
        low, high = trace.events[0].start_time, trace.events[-1].start_time
        query = _join_query()
        query.add_filter(
            "e",
            Between(
                Column("starttime"), low + (high - low) * 45 // 100, low + (high - low) * 55 // 100
            ),
        )
        database.reset_scan_counters()
        actual = database.execute(query)
        stats = database.statistics()["segments"]
        assert stats["pruned"] + stats["scanned"] == database.sealed_segments
        assert stats["pruned"] >= database.sealed_segments / 2
        memory = RelationalDatabase()
        memory.load_trace(trace)
        assert actual.rows and sorted(actual.rows) == sorted(memory.execute(query).rows)


class TestRestartSurvival:
    def test_audit_store_rehydrates_from_data_dir(self, tmp_path):
        trace = _trace(events=50)
        store = AuditStore(storage="segments", data_dir=tmp_path, apply_reduction=False)
        store.load_trace(trace)
        store.flush()
        baseline = store.relational.execute(_join_query())

        reopened = AuditStore(storage="segments", data_dir=tmp_path, apply_reduction=False)
        stored = {row["id"] for row in reopened.relational.event_rows()}
        assert stored == {event.event_id for event in trace.events}
        assert reopened.graph.edge_count() == store.graph.edge_count()
        result = reopened.relational.execute(_join_query())
        assert sorted(result.rows) == sorted(baseline.rows)

    def test_reopen_streams_rows_without_a_combined_view(self, tmp_path, monkeypatch):
        store = AuditStore(storage="segments", data_dir=tmp_path, segment_rows=8)
        store.load_trace(_trace(events=50))
        store.flush()

        def refuse(_self):
            raise AssertionError("reopen built the combined events view")

        monkeypatch.setattr(SegmentedRelationalDatabase, "_combined_view", refuse)
        reopened = AuditStore(storage="segments", data_dir=tmp_path, segment_rows=8)
        assert reopened.graph.edge_count() == store.graph.edge_count()
        assert reopened.graph.node_count() == store.graph.node_count()
        result = reopened.relational.execute(_join_query())
        assert sorted(result.rows) == sorted(store.relational.execute(_join_query()).rows)

    def test_orphan_staging_dir_from_crashed_seal_is_cleaned(self, tmp_path):
        database = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        database.load_trace(_trace())
        database.seal()
        # A crash between publishing column files and publishing the manifest
        # leaves a fully-written directory the manifest never references...
        orphan = tmp_path / "seg-00099"
        orphan.mkdir()
        (orphan / "events.starttime.col").write_bytes(b"partial")
        staging = tmp_path / "seg-00100.tmp"
        staging.mkdir()
        (staging / "events.optype.col").write_bytes(b"partial")
        # ...and reopening must drop both without surfacing their contents.
        reopened = SegmentedRelationalDatabase(tmp_path, segment_rows=8)
        assert not orphan.exists() and not staging.exists()
        assert reopened.sealed_segments == database.sealed_segments
        result = reopened.execute(_join_query())
        assert sorted(result.rows) == sorted(database.execute(_join_query()).rows)


class TestCrashDuringSegmentedHunt:
    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path):
        """CrashRecoveryHarness over a segmented pipeline: clean journal."""
        campaign = generate_campaigns(1, base_seed=1200)[0]

        def factory() -> ThreatRaptor:
            return ThreatRaptor(
                ThreatRaptorConfig(storage="segments", segment_rows=128)
            )

        harness = CrashRecoveryHarness(
            tmp_path, batch_size=96, pipeline_factory=factory
        )
        baseline_bytes, baseline_matched = harness.uninterrupted(campaign)
        assert baseline_bytes
        outcome = harness.crash_and_resume(campaign, boundary=1)
        assert outcome.resumed
        assert outcome.journal_bytes == baseline_bytes
        assert outcome.matched == baseline_matched


def _windowed_join_query() -> SelectQuery:
    """``_join_query`` over a window holding every event: pruning stats matter."""
    query = _join_query()
    query.add_filter("e", Between(Column("starttime"), 0, 10**9))
    return query


@functools.cache
def _sealed_template() -> tuple[tempfile.TemporaryDirectory[str], list[tuple]]:
    """A flushed segmented store (built once) and its windowed join rows."""
    directory = tempfile.TemporaryDirectory(prefix="segfuzz-")
    store = AuditStore(
        storage="segments", data_dir=directory.name, apply_reduction=False, segment_rows=8
    )
    store.load_trace(_trace(events=24))
    store.flush()
    return directory, sorted(store.relational.execute(_windowed_join_query()).rows)


class TestCorruptionFuzz:
    """One flipped, dropped or cut byte in ``manifest.json`` or any column file
    of a sealed store: reopening either raises :class:`SegmentError` or answers
    exactly as before — never another exception, never a different row set."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.data(),
        st.sampled_from(["flip", "drop", "cut"]),
        st.integers(min_value=1, max_value=255),
    )
    def test_reopen_raises_segment_error_or_answers_exactly(self, data, mode, mask):
        directory, expected = _sealed_template()
        template = Path(directory.name)
        files = sorted(
            path.relative_to(template).as_posix()
            for path in template.rglob("*")
            if path.is_file()
        )
        victim = data.draw(st.sampled_from(files), label="file")
        with tempfile.TemporaryDirectory(prefix="segfuzz-") as workdir:
            copy = Path(workdir) / "data"
            shutil.copytree(template, copy)
            blob = bytearray((copy / victim).read_bytes())
            position = data.draw(st.integers(0, len(blob) - 1), label="position")
            if mode == "flip":
                blob[position] ^= mask
            elif mode == "drop":
                del blob[position]
            else:
                del blob[position:]
            (copy / victim).write_bytes(bytes(blob))
            try:
                reopened = AuditStore(storage="segments", data_dir=copy, segment_rows=8)
                rows = sorted(reopened.relational.execute(_windowed_join_query()).rows)
            except SegmentError:
                return
            assert rows == expected
