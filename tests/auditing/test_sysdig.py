"""Unit tests for the Sysdig-style log format (emit + parse)."""

from __future__ import annotations

import io

import pytest

from repro.auditing.entities import EntityType, FileEntity, NetworkEntity, ProcessEntity
from repro.auditing.events import Operation, SystemEvent
from repro.auditing.parser import AuditLogParser
from repro.auditing.sysdig import (
    format_record,
    iter_records,
    iter_records_lenient,
    parse_record,
    write_trace,
)
from repro.auditing.trace import AuditTrace
from repro.errors import AuditLogError


@pytest.fixture
def sample_entities():
    process = ProcessEntity(entity_id=1, exename="/bin/tar", pid=42, cmdline="tar -cf x", owner="root")
    file_entity = FileEntity(entity_id=2, name="/etc/passwd")
    connection = NetworkEntity(entity_id=3, srcip="10.0.0.5", srcport=4000, dstip="1.2.3.4", dstport=443)
    return process, file_entity, connection


def _file_event(event_id=1) -> SystemEvent:
    return SystemEvent(
        event_id=event_id,
        subject_id=1,
        object_id=2,
        operation=Operation.READ,
        object_type=EntityType.FILE,
        start_time=1000,
        end_time=2000,
        amount=4096,
    )


class TestFormatRecord:
    def test_file_event_fields(self, sample_entities):
        process, file_entity, _ = sample_entities
        line = format_record(_file_event(), process, file_entity)
        record = parse_record(line)
        assert record["evt.num"] == "1"
        assert record["evt.type"] == "read"
        assert record["proc.name"] == "/bin/tar"
        assert record["fd.name"] == "/etc/passwd"
        assert record["evt.buflen"] == "4096"

    def test_network_event_fields(self, sample_entities):
        process, _, connection = sample_entities
        event = SystemEvent(
            event_id=2,
            subject_id=1,
            object_id=3,
            operation=Operation.CONNECT,
            object_type=EntityType.NETWORK,
            start_time=10,
            end_time=20,
        )
        record = parse_record(format_record(event, process, connection))
        assert record["fd.cip"] == "1.2.3.4"
        assert record["fd.cport"] == "443"
        assert record["fd.l4proto"] == "tcp"

    def test_process_event_fields(self, sample_entities):
        process, _, _ = sample_entities
        child = ProcessEntity(entity_id=4, exename="/bin/sh", pid=43, cmdline="sh")
        event = SystemEvent(
            event_id=3,
            subject_id=1,
            object_id=4,
            operation=Operation.FORK,
            object_type=EntityType.PROCESS,
            start_time=10,
            end_time=20,
        )
        record = parse_record(format_record(event, process, child))
        assert record["child.name"] == "/bin/sh"
        assert record["child.pid"] == "43"

    def test_non_process_subject_rejected(self, sample_entities):
        _, file_entity, _ = sample_entities
        with pytest.raises(AuditLogError):
            format_record(_file_event(), file_entity, file_entity)

    def test_escaping_of_tabs_and_newlines(self, sample_entities):
        process, _, _ = sample_entities
        weird = FileEntity(entity_id=5, name="/tmp/evil\tname\nwith newline\rand return")
        event = SystemEvent(
            event_id=4,
            subject_id=1,
            object_id=5,
            operation=Operation.WRITE,
            object_type=EntityType.FILE,
            start_time=1,
            end_time=2,
        )
        line = format_record(event, process, weird)
        assert "\n" not in line and "\r" not in line
        record = parse_record(line)
        assert record["fd.name"] == "/tmp/evil\tname\nwith newline\rand return"


class TestParseRecord:
    def test_empty_record_rejected(self):
        with pytest.raises(AuditLogError, match="empty"):
            parse_record("   \n")

    def test_malformed_field_rejected(self):
        with pytest.raises(AuditLogError, match="malformed"):
            parse_record("evt.num=1\tgarbage-without-equals")

    def test_repeated_field_rejected(self, sample_entities):
        process, file_entity, _ = sample_entities
        line = format_record(_file_event(), process, file_entity)
        repeated = line.replace("evt.num=1\t", "evt.num=1\tevt.num=2\t")
        with pytest.raises(AuditLogError, match="repeated field 'evt.num'"):
            parse_record(repeated)
        parsed, stats = AuditLogParser().parse(io.StringIO(f"{repeated}\n{line}\n"))
        assert (stats.records_parsed, stats.records_skipped) == (1, 1)
        assert [event.event_id for event in parsed.events] == [1]
        assert "repeated field 'evt.num'" in stats.errors[0]
        with pytest.raises(AuditLogError, match="repeated field"):
            AuditLogParser(strict=True).parse(io.StringIO(repeated + "\n"))

    def test_one_line_terminator_is_dropped(self):
        assert parse_record("a=1\tb=x\n") == {"a": "1", "b": "x"}
        assert parse_record("a=1\tb=x\r\n") == {"a": "1", "b": "x"}
        assert parse_record("a=1\tb=x\\r\\n\n") == {"a": "1", "b": "x\r\n"}

    def test_iter_records_skips_blank_lines(self, sample_entities):
        process, file_entity, _ = sample_entities
        line = format_record(_file_event(), process, file_entity)
        records = list(iter_records(io.StringIO(f"\n{line}\n\n{line}\n")))
        assert len(records) == 2

    def test_iter_records_lenient_reports_errors(self, sample_entities):
        process, file_entity, _ = sample_entities
        good = format_record(_file_event(), process, file_entity)
        stream = io.StringIO(f"{good}\nbroken line\n")
        results = list(iter_records_lenient(stream))
        assert results[0][1] is None
        assert results[1][0] is None and "malformed" in results[1][1]


class TestWriteTrace:
    def test_writes_one_line_per_event(self, sample_entities):
        process, file_entity, _ = sample_entities
        trace = AuditTrace(entities=[process, file_entity])
        trace.add_events([_file_event(1), _file_event(2)])
        buffer = io.StringIO()
        count = write_trace(trace, buffer)
        assert count == 2
        assert len(buffer.getvalue().splitlines()) == 2
