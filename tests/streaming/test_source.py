"""Tests for streaming event sources."""

from __future__ import annotations

import io

import pytest

from repro.auditing.sysdig import write_trace
from repro.auditing.workload.attacks import Figure2DataLeakageChain
from repro.auditing.workload.generator import HostSimulator
from repro.errors import ConfigurationError
from repro.streaming.source import LogTailSource, ReplaySource, iter_batches


@pytest.fixture(scope="module")
def simulation():
    return (
        HostSimulator(seed=13, benign_scale=0.3)
        .add_default_benign()
        .add_attack(Figure2DataLeakageChain())
        .run()
    )


class TestReplaySource:
    def test_replays_every_event_in_time_order(self, simulation):
        records = list(ReplaySource(simulation).records())
        assert len(records) == len(simulation.trace.events)
        starts = [record.event.start_time for record in records]
        assert starts == sorted(starts)

    def test_record_entities_match_event_endpoints(self, simulation):
        record = next(iter(ReplaySource(simulation.trace)))
        assert record.subject.entity_id == record.event.subject_id
        assert record.obj.entity_id == record.event.object_id

    def test_max_events_bounds_replay(self, simulation):
        records = list(ReplaySource(simulation, max_events=5).records())
        assert len(records) == 5

    def test_rejects_nonpositive_rate(self, simulation):
        with pytest.raises(ConfigurationError):
            ReplaySource(simulation, rate_events_per_second=0)


class TestLogTailSource:
    def test_parses_written_trace(self, simulation, tmp_path):
        path = tmp_path / "audit.log"
        with open(path, "w", encoding="utf-8") as handle:
            written = write_trace(simulation.trace, handle)
        records = list(LogTailSource(path=str(path)).records())
        assert len(records) == written
        assert {r.event.event_id for r in records} == {
            e.event_id for e in simulation.trace.events
        }

    def test_entities_deduplicated_across_lines(self, simulation, tmp_path):
        path = tmp_path / "audit.log"
        with open(path, "w", encoding="utf-8") as handle:
            write_trace(simulation.trace, handle)
        source = LogTailSource(path=str(path))
        seen: dict[int, object] = {}
        for record in source.records():
            for entity in record.entities():
                if entity.entity_id in seen:
                    assert seen[entity.entity_id] is entity
                seen[entity.entity_id] = entity

    def test_skips_corrupt_lines_leniently(self, simulation):
        buffer = io.StringIO()
        write_trace(simulation.trace, buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        lines.insert(1, "this is not an audit record\n")
        source = LogTailSource(stream=io.StringIO("".join(lines)))
        records = list(source.records())
        assert len(records) == len(simulation.trace.events)
        assert source.statistics.records_skipped == 1

    def test_max_events(self, simulation):
        buffer = io.StringIO()
        write_trace(simulation.trace, buffer)
        buffer.seek(0)
        records = list(LogTailSource(stream=buffer, max_events=3).records())
        assert len(records) == 3

    def test_requires_path_or_stream(self):
        with pytest.raises(ConfigurationError):
            LogTailSource()

    def test_final_line_without_newline_is_held_back_as_torn(self, simulation):
        """A newline-less final line is a collector caught mid-write: it must
        not be parsed as a complete record, and must be accounted for."""
        buffer = io.StringIO()
        write_trace(simulation.trace, buffer)
        text = buffer.getvalue().rstrip("\n")
        source = LogTailSource(stream=io.StringIO(text))
        records = list(source.records())
        assert len(records) == len(simulation.trace.events) - 1
        assert source.statistics.records_torn == 1
        assert source.statistics.records_skipped == 0

    def test_follow_mode_buffers_partial_lines(self, simulation):
        """A record caught mid-write must not be parsed until its newline."""
        buffer = io.StringIO()
        write_trace(simulation.trace, buffer)
        first_line = buffer.getvalue().splitlines()[0] + "\n"
        split_at = len(first_line) // 2

        class ChunkedHandle:
            """readline() returns a partial line, then the rest (tail -f EOF)."""

            def __init__(self, chunks):
                self._chunks = list(chunks)

            def readline(self):
                return self._chunks.pop(0) if self._chunks else ""

        handle = ChunkedHandle([first_line[:split_at], "", first_line[split_at:]])
        source = LogTailSource(
            stream=handle, follow=True, poll_interval=0.0, max_events=1  # type: ignore[arg-type]
        )
        records = list(source.records())
        assert len(records) == 1
        assert source.statistics.records_skipped == 0
        assert records[0].event.event_id == simulation.trace.events[0].event_id


class TestIterBatches:
    def test_groups_with_remainder(self):
        batches = list(iter_batches(iter(range(10)), 4))
        assert [len(batch) for batch in batches] == [4, 4, 2]

    def test_rejects_zero_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_batches(iter(range(3)), 0))


class TestLogTailResilience:
    """Rotation/truncation survival, resumable offsets, and retry-guarded reads."""

    @pytest.fixture()
    def log_lines(self, simulation):
        buffer = io.StringIO()
        write_trace(simulation.trace, buffer)
        return buffer.getvalue().splitlines(keepends=True)

    def _bounded_sleep(self, hooks):
        """A follow-mode sleep stub running one hook per call, failing loudly
        instead of spinning forever if the source never makes progress."""
        calls = {"n": 0}

        def sleep(_seconds):
            calls["n"] += 1
            if calls["n"] > 50:
                raise AssertionError("follow loop made no progress")
            if hooks:
                hooks.pop(0)()

        return sleep

    def test_follow_mode_survives_rotation(self, log_lines, tmp_path):
        import os

        path = tmp_path / "audit.log"
        path.write_text("".join(log_lines[:2]), encoding="utf-8")

        def rotate():
            os.rename(path, tmp_path / "audit.log.1")
            path.write_text("".join(log_lines[2:4]), encoding="utf-8")

        source = LogTailSource(
            path=str(path), follow=True, max_events=4,
            sleep=self._bounded_sleep([rotate]),
        )
        records = list(source.records())
        assert len(records) == 4
        assert source.rotations == 1
        assert [r.event.event_id for r in records] == [
            r.event.event_id
            for r in LogTailSource(stream=io.StringIO("".join(log_lines[:4]))).records()
        ]

    def test_follow_mode_survives_truncation(self, log_lines, tmp_path):
        path = tmp_path / "audit.log"
        path.write_text("".join(log_lines[:3]), encoding="utf-8")

        def truncate():
            # In-place truncation (same inode): the file shrinks below the
            # tail position and restarts with different content.
            path.write_text("".join(log_lines[3:5]), encoding="utf-8")

        source = LogTailSource(
            path=str(path), follow=True, max_events=5,
            sleep=self._bounded_sleep([truncate]),
        )
        records = list(source.records())
        assert len(records) == 5
        assert source.truncations == 1

    def test_start_offset_resumes_where_tail_stopped(self, log_lines, tmp_path):
        path = tmp_path / "audit.log"
        path.write_text("".join(log_lines[:3]), encoding="utf-8")
        first = LogTailSource(path=str(path))
        first_records = list(first.records())
        assert len(first_records) == 3
        state = first.checkpoint_state()
        assert state["kind"] == "log-tail"
        assert state["offset"] == path.stat().st_size
        assert state["inode"] == path.stat().st_ino

        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(log_lines[3:5]))
        resumed = LogTailSource(
            path=str(path), start_offset=state["offset"], start_inode=state["inode"]
        )
        resumed_records = list(resumed.records())
        assert len(resumed_records) == 2
        assert {r.event.event_id for r in resumed_records}.isdisjoint(
            {r.event.event_id for r in first_records}
        )

    def test_stale_offset_after_rotation_restarts_from_zero(self, log_lines, tmp_path):
        path = tmp_path / "audit.log"
        path.write_text("".join(log_lines[:5]), encoding="utf-8")
        offset = path.stat().st_size
        stale_inode = path.stat().st_ino + 1  # the log rotated while down
        path.write_text("".join(log_lines[:2]), encoding="utf-8")
        source = LogTailSource(path=str(path), start_offset=offset, start_inode=stale_inode)
        assert len(list(source.records())) == 2

    def test_torn_final_line_is_not_committed(self, log_lines, tmp_path):
        path = tmp_path / "audit.log"
        torn_at = len(log_lines[0]) + len(log_lines[1]) // 2
        path.write_text("".join(log_lines[:2])[:torn_at], encoding="utf-8")
        source = LogTailSource(path=str(path))
        assert len(list(source.records())) == 1
        assert source.statistics.records_torn == 1
        assert source.offset == len(log_lines[0].encode("utf-8"))

        # Completing the line and resuming from the committed offset yields
        # exactly the record that was torn.
        path.write_text("".join(log_lines[:2]), encoding="utf-8")
        resumed = LogTailSource(
            path=str(path), start_offset=source.offset, start_inode=source.inode
        )
        records = list(resumed.records())
        assert len(records) == 1
        assert resumed.statistics.records_torn == 0

    def test_transient_read_errors_are_retried(self, log_lines):
        from repro.streaming.retry import RetryPolicy

        class FlakyHandle:
            """Every other readline raises a transient OSError."""

            def __init__(self, text):
                self._inner = io.StringIO(text)
                self.calls = 0

            def readline(self):
                self.calls += 1
                if self.calls % 2 == 1:
                    raise OSError("transient")
                return self._inner.readline()

        source = LogTailSource(
            stream=FlakyHandle("".join(log_lines[:4])),  # type: ignore[arg-type]
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=lambda _: None,
        )
        records = list(source.records())
        assert len(records) == 4
        assert source.retry_stats.retries >= 4
        assert source.retry_stats.giveups == 0

    def test_unguarded_read_error_propagates(self, log_lines):
        class BrokenHandle:
            def readline(self):
                raise OSError("disk gone")

        source = LogTailSource(stream=BrokenHandle())  # type: ignore[arg-type]
        with pytest.raises(OSError):
            list(source.records())

    def test_replay_source_checkpoint_and_resume(self, simulation):
        source = ReplaySource(simulation)
        records = list(source.records())
        assert source.checkpoint_state() == {"kind": "replay", "position": len(records)}
        resumed = ReplaySource(simulation, start_position=len(records) - 5)
        tail = list(resumed.records())
        assert [r.event.event_id for r in tail] == [
            r.event.event_id for r in records[-5:]
        ]
