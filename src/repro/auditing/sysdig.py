"""Sysdig-style audit log text format: emission and parsing.

ThreatRaptor collects audit logs from a host with Sysdig.  This reproduction
replaces the live kernel capture with a deterministic simulator, but keeps a
textual log format so the parsing stage of the system is exercised the same
way it would be against real Sysdig output.

Each record is one line of tab-separated ``key=value`` fields:

``evt.num=<id>\tevt.time=<ns>\tevt.endtime=<ns>\tevt.type=<op>\t``
``proc.name=<exe>\tproc.pid=<pid>\tproc.cmdline=<cmd>\tuser.name=<owner>\t``
followed by object fields that depend on the event category:

* file events:    ``fd.name=<path>``
* process events: ``child.name=<exe>\tchild.pid=<pid>\tchild.cmdline=<cmd>``
* network events: ``fd.sip=<ip>\tfd.sport=<p>\tfd.cip=<ip>\tfd.cport=<p>\tfd.l4proto=<proto>``

plus ``evt.buflen=<bytes>`` and ``host=<hostname>``.

A value escapes ``\\`` as ``\\\\`` and tab, newline and carriage return as
``\\t``, ``\\n`` and ``\\r``, so a record is exactly one ``\\n``-terminated
line; a CRLF terminator is accepted too.  Read log files with
``newline="\\n"``: universal-newline mode would split a record on any other
line break its values carry (a form feed, ``\\u2028``).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, TextIO

from repro.auditing.entities import (
    EntityType,
    NetworkEntity,
    ProcessEntity,
    SystemEntity,
)
from repro.auditing.events import SystemEvent
from repro.auditing.trace import AuditTrace
from repro.errors import AuditLogError

_FIELD_SEPARATOR = "\t"
_ESCAPED = {"t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_SEQUENCE = re.compile(r"\\(.)", re.DOTALL)


def _escape(value: object) -> str:
    """Escape a field value so separators and line breaks cannot break the record."""
    text = str(value)
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _unescape(value: str) -> str:
    """Invert :func:`_escape`.

    Lenient on input no escaper wrote: an unknown escape ``\\x`` reads as
    ``x`` and a lone trailing backslash is kept.
    """
    if "\\" not in value:
        return value
    return _ESCAPE_SEQUENCE.sub(lambda match: _ESCAPED.get(match[1], match[1]), value)


def format_record(
    event: SystemEvent, subject: SystemEntity, obj: SystemEntity
) -> str:
    """Format one audit event as a Sysdig-style log line."""
    if not isinstance(subject, ProcessEntity):
        raise AuditLogError(
            f"event {event.event_id}: subject {subject.entity_id} is not a process"
        )
    fields: list[tuple[str, object]] = [
        ("evt.num", event.event_id),
        ("evt.time", event.start_time),
        ("evt.endtime", event.end_time),
        ("evt.type", event.operation.value),
        ("proc.name", subject.exename),
        ("proc.pid", subject.pid),
        ("proc.cmdline", subject.cmdline),
        ("user.name", subject.owner),
    ]
    if event.object_type is EntityType.FILE:
        fields.append(("fd.name", obj.attribute("name")))
    elif event.object_type is EntityType.PROCESS:
        fields.extend(
            [
                ("child.name", obj.attribute("exename")),
                ("child.pid", obj.attribute("pid")),
                ("child.cmdline", obj.attribute("cmdline")),
            ]
        )
    else:
        fields.extend(
            [
                ("fd.sip", obj.attribute("srcip")),
                ("fd.sport", obj.attribute("srcport")),
                ("fd.cip", obj.attribute("dstip")),
                ("fd.cport", obj.attribute("dstport")),
                ("fd.l4proto", obj.attribute("protocol")),
            ]
        )
    fields.append(("evt.buflen", event.amount))
    fields.append(("host", event.host))
    return _FIELD_SEPARATOR.join(f"{key}={_escape(value)}" for key, value in fields)


def write_trace(trace: AuditTrace, stream: TextIO) -> int:
    """Write a full trace to ``stream`` in Sysdig format.

    Returns:
        The number of records written.
    """
    count = 0
    entity_by_id = {entity.entity_id: entity for entity in trace.entities}
    for event in trace.events:
        subject = entity_by_id[event.subject_id]
        obj = entity_by_id[event.object_id]
        stream.write(format_record(event, subject, obj))
        stream.write("\n")
        count += 1
    return count


def parse_record(line: str) -> dict[str, str]:
    """Parse one Sysdig-style log line into a field dict.

    One trailing ``"\\n"`` or ``"\\r\\n"`` is dropped.

    Raises:
        AuditLogError: if the line is empty, a field lacks ``key=value`` form,
            or a field name repeats.
    """
    if line.endswith("\n"):
        line = line[:-2] if line.endswith("\r\n") else line[:-1]
    if not line or line.isspace():
        raise AuditLogError("empty audit record")
    escaped = "\\" in line
    fields: dict[str, str] = {}
    for raw in line.split(_FIELD_SEPARATOR):
        key, equals, value = raw.partition("=")
        if not equals:
            raise AuditLogError(f"malformed field {raw!r} in record {line!r}")
        if key in fields:
            raise AuditLogError(f"repeated field {key!r} in record {line!r}")
        fields[key] = _unescape(value) if escaped else value
    return fields


def iter_records(stream: TextIO | Iterable[str]) -> Iterator[dict[str, str]]:
    """Yield parsed field dicts for every non-blank line in ``stream``.

    Lines that cannot be parsed raise :class:`AuditLogError`; callers that want
    to skip corrupt lines should catch it per record via
    :func:`iter_records_lenient`.
    """
    for line in stream:
        if line.isspace() or not line:
            continue
        yield parse_record(line)


def iter_records_lenient(
    stream: TextIO | Iterable[str],
) -> Iterator[tuple[dict[str, str] | None, str | None]]:
    """Like :func:`iter_records` but yields ``(record, error)`` pairs.

    Exactly one element of the pair is ``None``.  This mirrors how a production
    collector tolerates occasional corrupt lines without dropping the stream.
    """
    for line in stream:
        if line.isspace() or not line:
            continue
        try:
            yield parse_record(line), None
        except AuditLogError as exc:
            yield None, str(exc)


__all__ = [
    "format_record",
    "write_trace",
    "parse_record",
    "iter_records",
    "iter_records_lenient",
]
