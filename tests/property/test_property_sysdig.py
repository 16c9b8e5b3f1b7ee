"""Property-based tests for the Sysdig-style record format: escaping and parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditing.entities import EntityType, FileEntity, NetworkEntity, ProcessEntity
from repro.auditing.events import OPERATIONS_BY_EVENT_TYPE, SystemEvent, event_type_for_object
from repro.auditing.sysdig import _escape, _unescape, format_record, parse_record

#: Characters that mean something to the format or to a line splitter.
_SPECIAL = "\\\t\n\r=\x0c\x1c\x85\u2028"
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()), max_size=24)
_IDS = st.integers(min_value=0, max_value=2**63 - 1)
_PORTS = st.integers(min_value=0, max_value=65535)


class TestEscaping:
    @settings(max_examples=300, deadline=None)
    @given(_TEXT)
    def test_unescape_inverts_escape(self, text):
        assert _unescape(_escape(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(_TEXT)
    def test_escaped_value_holds_no_separator_or_line_end(self, text):
        escaped = _escape(text)
        assert not {"\t", "\n", "\r"} & set(escaped)

    @pytest.mark.parametrize(
        ("raw", "value"),
        [
            ("trailing\\", "trailing\\"),  # a lone trailing backslash is kept
            ("\\q\\\\x", "q\\x"),  # an unknown escape \q reads as q
            ("\\r\\n\\t", "\r\n\t"),
            ("a=b=c", "a=b=c"),  # no escape at all: returned as is
        ],
    )
    def test_lenient_unescape(self, raw, value):
        assert _unescape(raw) == value

    def test_equals_inside_a_value_belongs_to_the_value(self):
        assert parse_record("fd.name=/tmp/a=b\thost=h=1") == {
            "fd.name": "/tmp/a=b",
            "host": "h=1",
        }


@st.composite
def _records(draw):
    """A random event with its subject and object, and the fields it must parse to."""
    subject = ProcessEntity(
        entity_id=1,
        exename=draw(_TEXT),
        pid=draw(_IDS),
        cmdline=draw(_TEXT),
        owner=draw(_TEXT),
    )
    object_type = draw(st.sampled_from(list(EntityType)))
    if object_type is EntityType.FILE:
        obj = FileEntity(entity_id=2, name=draw(_TEXT))
        object_fields = {"fd.name": obj.name}
    elif object_type is EntityType.PROCESS:
        obj = ProcessEntity(entity_id=2, exename=draw(_TEXT), pid=draw(_IDS), cmdline=draw(_TEXT))
        object_fields = {
            "child.name": obj.exename,
            "child.pid": str(obj.pid),
            "child.cmdline": obj.cmdline,
        }
    else:
        obj = NetworkEntity(
            entity_id=2,
            srcip=draw(_TEXT),
            srcport=draw(_PORTS),
            dstip=draw(_TEXT),
            dstport=draw(_PORTS),
            protocol=draw(_TEXT),
        )
        object_fields = {
            "fd.sip": obj.srcip,
            "fd.sport": str(obj.srcport),
            "fd.cip": obj.dstip,
            "fd.cport": str(obj.dstport),
            "fd.l4proto": obj.protocol,
        }
    operations = sorted(OPERATIONS_BY_EVENT_TYPE[event_type_for_object(object_type)], key=str)
    start = draw(_IDS)
    event = SystemEvent(
        event_id=draw(_IDS),
        subject_id=1,
        object_id=2,
        operation=draw(st.sampled_from(operations)),
        object_type=object_type,
        start_time=start,
        end_time=start + draw(st.integers(min_value=0, max_value=10**9)),
        amount=draw(_IDS),
        host=draw(_TEXT),
    )
    fields = {
        "evt.num": str(event.event_id),
        "evt.time": str(event.start_time),
        "evt.endtime": str(event.end_time),
        "evt.type": event.operation.value,
        "proc.name": subject.exename,
        "proc.pid": str(subject.pid),
        "proc.cmdline": subject.cmdline,
        "user.name": subject.owner,
        **object_fields,
        "evt.buflen": str(event.amount),
        "host": event.host,
    }
    return (event, subject, obj), fields


class TestRecordRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_parse_recovers_every_field(self, record):
        parts, fields = record
        line = format_record(*parts)
        assert parse_record(line) == fields
        assert parse_record(line + "\n") == fields
        assert parse_record(line + "\r\n") == fields
