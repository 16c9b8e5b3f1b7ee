"""Unit tests for audit log parsing (records → entities/events)."""

from __future__ import annotations

import io

import pytest

from repro.auditing.entities import EntityType, FileEntity, ProcessEntity
from repro.auditing.events import Operation, SystemEvent
from repro.auditing.parser import AuditLogParser, parse_log_text
from repro.auditing.sysdig import write_trace
from repro.auditing.trace import AuditTrace
from repro.auditing.workload.attacks import Figure2DataLeakageChain
from repro.auditing.workload.base import ScenarioBuilder
from repro.core.pipeline import ThreatRaptor
from repro.errors import AuditLogError
from repro.streaming.source import LogTailSource


def _figure2_trace():
    builder = ScenarioBuilder(seed=1)
    attack = Figure2DataLeakageChain()
    attack.generate(builder)
    return builder.build()


def _one_read(file_name: str) -> AuditTrace:
    """A one-event trace: ``/bin/cat`` reads ``file_name``."""
    process = ProcessEntity(entity_id=1, exename="/bin/cat", pid=7, cmdline="cat")
    target = FileEntity(entity_id=2, name=file_name)
    trace = AuditTrace(host="victim", entities=[process, target])
    trace.add_events(
        [
            SystemEvent(
                event_id=1,
                subject_id=1,
                object_id=2,
                operation=Operation.READ,
                object_type=EntityType.FILE,
                start_time=10,
                end_time=20,
                amount=99,
                host="victim",
            )
        ]
    )
    return trace


def _log_of(trace: AuditTrace) -> str:
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()


def _read_facts(trace: AuditTrace) -> tuple[list[str], list[tuple[int, str]]]:
    names = [entity.name for entity in trace.entities if isinstance(entity, FileEntity)]
    return names, [(event.amount, event.host) for event in trace.events]


#: One log holding every kind of line the parser accounts for: clean file,
#: process and network records, blank lines, a malformed field, a record with
#: no object fields, an unknown ``evt.type``, an ``end < start`` record,
#: escaped values (including the lenient quirks: an unknown escape ``\q``, a
#: lone trailing backslash, ``=`` inside a value) and an unterminated last line.
_MIXED_LOG = (
    "evt.num=1\tevt.time=100\tevt.endtime=150\tevt.type=read\tproc.name=/bin/cat\tproc.pid=10\t"
    "proc.cmdline=cat /etc/passwd\tuser.name=alice\tfd.name=/etc/passwd\tevt.buflen=512\thost=h1\n"
    "\n"
    "evt.num=2\tevt.time=200\tevt.endtime=210\tevt.type=clone\tproc.name=/bin/bash\tproc.pid=11\t"
    "proc.cmdline=bash\tuser.name=root\tchild.name=/bin/sh\tchild.pid=12\tchild.cmdline=sh -c x\t"
    "evt.buflen=0\thost=h1\n"
    "   \n"
    "evt.num=3\tevt.time=300\tevt.endtime=320\tevt.type=sendto\tproc.name=/usr/bin/curl\t"
    "proc.pid=13\tproc.cmdline=curl -T x\tuser.name=bob\tfd.sip=10.0.0.5\tfd.sport=4000\t"
    "fd.cip=1.2.3.4\tfd.cport=443\tfd.l4proto=udp\tevt.buflen=2048\thost=h1\n"
    "evt.num=4\tgarbage\n"
    "evt.num=5\tevt.time=1\tevt.endtime=2\tevt.type=read\tproc.name=/bin/x\tproc.pid=1\t"
    "evt.buflen=0\thost=h\n"
    "evt.num=6\tevt.time=600\tevt.endtime=601\tevt.type=teleport\tproc.name=/bin/cat\tproc.pid=10\t"
    "fd.name=/tmp/elsewhere\tevt.buflen=1\thost=h1\n"
    "evt.num=7\tevt.time=500\tevt.endtime=400\tevt.type=write\tproc.name=/bin/cat\tproc.pid=10\t"
    "fd.name=/tmp/out\tevt.buflen=1\thost=h1\n"
    "evt.num=8\tevt.time=800\tevt.endtime=900\tevt.type=WRITE\tproc.name=/bin/sh\tproc.pid=14\t"
    "proc.cmdline=sh -c \\\\q\\q\\\tuser.name=alice\tfd.name=/tmp/evil\\tname\\nwith\\\\slash=x\t"
    "evt.buflen=64\thost=h\\\\1\n"
    "evt.num=9\tevt.time=950\tevt.endtime=960\tevt.type=read\tproc.name=/bin/cat\tproc.pid=10\t"
    "fd.name=/etc/passwd\tevt.buflen=8\thost=h1"
)

_MIXED_ERRORS = [
    "malformed field 'garbage' in record 'evt.num=4\\tgarbage'",
    "record 5 has no recognisable object fields",
    "unknown operation: 'teleport'",
    "event 7: end_time 400 precedes start_time 500",
]

#: Entity rows (``to_row`` values) the mixed log yields.  A record skipped
#: after its endpoints were resolved (ids 7-9) still allocated them.
_MIXED_ENTITIES = [
    (1, "process", "h0", "/bin/cat", 10, "cat /etc/passwd", "alice"),
    (2, "file", "h0", "/etc/passwd"),
    (3, "process", "h0", "/bin/bash", 11, "bash", "root"),
    (4, "process", "h0", "/bin/sh", 12, "sh -c x", "root"),
    (5, "process", "h0", "/usr/bin/curl", 13, "curl -T x", "bob"),
    (6, "network", "h0", "10.0.0.5", 4000, "1.2.3.4", 443, "udp"),
    (7, "process", "h0", "/bin/x", 1, "/bin/x", "root"),
    (8, "file", "h0", "/tmp/elsewhere"),
    (9, "file", "h0", "/tmp/out"),
    (10, "process", "h0", "/bin/sh", 14, "sh -c \\qq\\", "alice"),
    (11, "file", "h0", "/tmp/evil\tname\nwith\\slash=x"),
]

_MIXED_EVENTS = [
    (1, 1, 2, "read", "file", 100, 150, 512, "h1"),
    (2, 3, 4, "fork", "process", 200, 210, 0, "h1"),
    (3, 5, 6, "send", "network", 300, 320, 2048, "h1"),
    (8, 10, 11, "write", "file", 800, 900, 64, "h\\1"),
    (9, 1, 2, "read", "file", 950, 960, 8, "h1"),
]


def _event_tuple(event: SystemEvent) -> tuple:
    return (
        event.event_id,
        event.subject_id,
        event.object_id,
        event.operation.value,
        event.object_type.value,
        event.start_time,
        event.end_time,
        event.amount,
        event.host,
    )


def _accounting(stats) -> tuple:
    return (
        stats.records_seen,
        stats.records_parsed,
        stats.records_skipped,
        stats.records_torn,
        stats.errors,
    )


class TestParseAccounting:
    """The mixed log's events and statistics, frozen from the per-character
    unescaping parser this one replaced."""

    def test_whole_log(self):
        trace, stats = AuditLogParser(host="h0").parse(io.StringIO(_MIXED_LOG))
        assert [_event_tuple(event) for event in trace.events] == _MIXED_EVENTS
        assert [tuple(entity.to_row().values()) for entity in trace.entities] == _MIXED_ENTITIES
        assert _accounting(stats) == (9, 5, 4, 0, _MIXED_ERRORS)

    def test_tail_holds_back_the_torn_last_line(self):
        source = LogTailSource(stream=io.StringIO(_MIXED_LOG), host="h0")
        records = list(source.records())
        assert [_event_tuple(record.event) for record in records] == _MIXED_EVENTS[:-1]
        entities = {
            entity.entity_id: tuple(entity.to_row().values())
            for record in records
            for entity in record.entities()
        }
        assert sorted(entities.values()) == [
            row for row in _MIXED_ENTITIES if row[0] not in (7, 8, 9)
        ]
        assert _accounting(source.statistics) == (8, 4, 4, 1, _MIXED_ERRORS)


class TestLineSeparators:
    """A record is one ``\\n``-terminated line, whatever its values hold."""

    def test_carriage_return_in_a_value_survives_a_file_roundtrip(self, tmp_path):
        path = tmp_path / "audit.log"
        path.write_text(_log_of(_one_read("/tmp/a\rb")), encoding="utf-8")
        parsed, stats = AuditLogParser().parse_file(str(path))
        assert (stats.records_parsed, stats.records_skipped) == (1, 0)
        assert _read_facts(parsed) == (["/tmp/a\rb"], [(99, "victim")])

    def test_raw_carriage_return_does_not_split_a_record(self, tmp_path):
        # A log whose writer did not escape "\r": only "\n" ends a record.
        line = _log_of(_one_read("/tmp/a_b")).replace("/tmp/a_b", "/tmp/a\rb")
        path = tmp_path / "audit.log"
        path.write_bytes(line.encode("utf-8"))
        parsed, stats = AuditLogParser().parse_file(str(path))
        assert (stats.records_parsed, stats.records_skipped) == (1, 0)
        assert _read_facts(parsed) == (["/tmp/a\rb"], [(99, "victim")])
        report = ThreatRaptor().load_log_file(str(path))
        assert report.relational_rows["events"] == 1

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_parse_log_text_splits_on_newline_only(self, separator):
        name = f"/tmp/a{separator}b"
        parsed = parse_log_text(_log_of(_one_read(name)), host="victim")
        assert _read_facts(parsed) == ([name], [(99, "victim")])

    def test_crlf_line_end_is_not_part_of_the_last_field(self):
        line = _log_of(_one_read("/tmp/x")).rstrip("\n")
        parsed, stats = AuditLogParser().parse(io.StringIO(line + "\r\n" + line + "\r\n"))
        assert (stats.records_parsed, stats.records_skipped) == (2, 0)
        assert [event.host for event in parsed.events] == ["victim", "victim"]
        assert [event.host for event in parse_log_text(line + "\r\n").events] == ["victim"]

    def test_crlf_log_tailed_from_a_file(self, tmp_path):
        line = _log_of(_one_read("/tmp/x")).rstrip("\n")
        path = tmp_path / "audit.log"
        path.write_bytes((line + "\r\n").encode("utf-8"))
        source = LogTailSource(path=str(path))
        records = list(source.records())
        assert [record.event.host for record in records] == ["victim"]
        assert source.statistics.records_skipped == 0


class TestAuditLogParser:
    def test_roundtrip_preserves_event_count(self):
        trace = _figure2_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        parsed, stats = AuditLogParser(host=trace.host).parse(io.StringIO(buffer.getvalue()))
        assert stats.records_parsed == len(trace.events)
        assert stats.records_skipped == 0
        assert len(parsed.events) == len(trace.events)

    def test_roundtrip_preserves_event_semantics(self):
        trace = _figure2_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        parsed, _ = AuditLogParser(host=trace.host).parse(io.StringIO(buffer.getvalue()))

        def edge_set(t):
            by_id = {entity.entity_id: entity for entity in t.entities}
            return {
                (
                    by_id[event.subject_id].default_attribute_value(),
                    event.operation.value,
                    by_id[event.object_id].default_attribute_value(),
                )
                for event in t.events
            }

        assert edge_set(parsed) == edge_set(trace)

    def test_entities_deduplicated_across_records(self):
        trace = _figure2_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        parsed, _ = AuditLogParser().parse(io.StringIO(buffer.getvalue()))
        passwd_entities = [
            entity for entity in parsed.entities
            if entity.attributes().get("name") == "/etc/passwd"
        ]
        assert len(passwd_entities) == 1

    def test_lenient_mode_skips_corrupt_records(self):
        trace = _figure2_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        corrupted = buffer.getvalue() + "this is not a record\n"
        parsed, stats = AuditLogParser().parse(io.StringIO(corrupted))
        assert stats.records_skipped == 1
        assert stats.records_parsed == len(trace.events)
        assert 0 < stats.skip_ratio < 1

    def test_strict_mode_raises_on_corrupt_record(self):
        with pytest.raises(AuditLogError):
            AuditLogParser(strict=True).parse(io.StringIO("garbage\n"))

    def test_record_without_object_fields_is_skipped(self):
        line = "evt.num=1\tevt.time=1\tevt.endtime=2\tevt.type=read\tproc.name=/bin/x\tproc.pid=1\tevt.buflen=0\thost=h"
        parsed, stats = AuditLogParser().parse(io.StringIO(line + "\n"))
        assert stats.records_skipped == 1
        assert len(parsed.events) == 0

    def test_parse_log_text_helper(self):
        trace = _figure2_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        parsed = parse_log_text(buffer.getvalue(), host="victim-host")
        assert len(parsed.events) == len(trace.events)
        assert parsed.host == "victim-host"

    def test_skip_ratio_zero_for_empty_input(self):
        _, stats = AuditLogParser().parse(io.StringIO(""))
        assert stats.skip_ratio == 0.0
