"""Log parsing: Sysdig-style records → system entities and system events.

ThreatRaptor "parses the collected logs into system entities and system events,
and extracts critical attributes".  The :class:`AuditLogParser` consumes the
field dicts produced by :mod:`repro.auditing.sysdig` and rebuilds an
:class:`~repro.auditing.trace.AuditTrace`, de-duplicating entities through an
:class:`~repro.auditing.entities.EntityFactory` so repeated observations of the
same file/process/connection map to a single entity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

from repro.auditing.entities import EntityFactory, SystemEntity
from repro.auditing.events import OPERATION_NAMES, Operation, SystemEvent
from repro.auditing.sysdig import iter_records_lenient
from repro.auditing.trace import AuditTrace
from repro.errors import AuditLogError


@dataclass
class ParseStatistics:
    """Counters describing one parsing run."""

    records_seen: int = 0
    records_parsed: int = 0
    records_skipped: int = 0
    #: Unterminated final lines held back by a tailing source (a collector
    #: caught mid-write): neither parsed nor skipped, just not complete yet.
    records_torn: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def skip_ratio(self) -> float:
        """Fraction of records that had to be skipped (0.0 for a clean log)."""
        if not self.records_seen:
            return 0.0
        return self.records_skipped / self.records_seen


class AuditLogParser:
    """Parses Sysdig-style audit logs into an :class:`AuditTrace`.

    The parser is tolerant by default: corrupt records are counted and skipped
    rather than aborting the whole ingestion, matching how the system behaves
    against noisy production logs.  Pass ``strict=True`` to abort on the first
    malformed record instead.
    """

    def __init__(self, host: str = "localhost", strict: bool = False) -> None:
        self._host = host
        self._strict = strict

    def parse(self, stream: TextIO | Iterable[str]) -> tuple[AuditTrace, ParseStatistics]:
        """Parse every record in ``stream``.

        Returns:
            The reconstructed trace and the parsing statistics.

        Raises:
            AuditLogError: in strict mode, on the first malformed record.
        """
        factory = EntityFactory(host=self._host)
        trace = AuditTrace(host=self._host)
        stats = ParseStatistics()
        events = [event for event, _, _ in self.iter_events(stream, factory=factory, stats=stats)]
        trace.add_entities(factory.all_entities())
        trace.add_events(events)
        return trace, stats

    def iter_events(
        self,
        stream: TextIO | Iterable[str],
        factory: EntityFactory | None = None,
        stats: ParseStatistics | None = None,
    ) -> Iterator[tuple[SystemEvent, SystemEntity, SystemEntity]]:
        """Incrementally parse ``stream``, yielding one event at a time.

        This is the streaming counterpart of :meth:`parse`: records are
        converted as they are read instead of materialising a whole trace, so a
        log can be tailed line by line.  Each item is the parsed event together
        with its subject and object entities (deduplicated through
        ``factory``, which callers tailing across multiple reads should pass in
        and keep).

        Args:
            factory: Entity factory to deduplicate entities through; a fresh
                one is created when omitted.
            stats: Statistics object to update in place; counters are discarded
                when omitted.

        Raises:
            AuditLogError: in strict mode, on the first malformed record.
        """
        factory = factory if factory is not None else EntityFactory(host=self._host)
        stats = stats if stats is not None else ParseStatistics()
        for record, error in iter_records_lenient(stream):
            stats.records_seen += 1
            if error is not None:
                if self._strict:
                    raise AuditLogError(error)
                stats.records_skipped += 1
                stats.errors.append(error)
                continue
            assert record is not None
            try:
                event, subject, obj = self._record_to_event(record, factory)
            except (AuditLogError, KeyError, ValueError) as exc:
                if self._strict:
                    raise AuditLogError(str(exc)) from exc
                stats.records_skipped += 1
                stats.errors.append(str(exc))
                continue
            stats.records_parsed += 1
            yield event, subject, obj

    def parse_file(self, path: str) -> tuple[AuditTrace, ParseStatistics]:
        """Parse an audit log file from disk.

        Only ``"\\n"`` ends a record: universal-newline mode would also end
        one at a ``"\\r"``.
        """
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            return self.parse(handle)

    # -- internal ----------------------------------------------------------

    def _record_to_event(
        self, record: dict[str, str], factory: EntityFactory
    ) -> tuple[SystemEvent, SystemEntity, SystemEntity]:
        subject = factory.process(
            exename=record["proc.name"],
            pid=int(record["proc.pid"]),
            cmdline=record.get("proc.cmdline", ""),
            owner=record.get("user.name", "root"),
        )
        obj = self._parse_object(record, factory)
        name = record["evt.type"]
        operation = OPERATION_NAMES.get(name) or Operation.from_string(name)
        start_time = int(record["evt.time"])
        end_time = int(record.get("evt.endtime", start_time))
        # Positional, in field order: keyword arguments add a quarter to the
        # frozen dataclass's construction, which runs once per record.
        event = SystemEvent(
            int(record["evt.num"]),
            subject.entity_id,
            obj.entity_id,
            operation,
            obj.entity_type,
            start_time,
            end_time,
            int(record.get("evt.buflen", "0") or 0),
            record.get("host", self._host),
        )
        return event, subject, obj

    def _parse_object(
        self, record: dict[str, str], factory: EntityFactory
    ) -> SystemEntity:
        if "fd.name" in record:
            return factory.file(record["fd.name"])
        if "child.name" in record:
            return factory.process(
                exename=record["child.name"],
                pid=int(record["child.pid"]),
                cmdline=record.get("child.cmdline", ""),
            )
        if "fd.cip" in record:
            return factory.network(
                srcip=record.get("fd.sip", ""),
                srcport=int(record.get("fd.sport", "0") or 0),
                dstip=record["fd.cip"],
                dstport=int(record.get("fd.cport", "0") or 0),
                protocol=record.get("fd.l4proto", "tcp"),
            )
        raise AuditLogError(
            f"record {record.get('evt.num', '?')} has no recognisable object fields"
        )


def parse_log_text(text: str, host: str = "localhost") -> AuditTrace:
    """Convenience helper: parse a log given as one string, ignoring stats."""
    trace, _ = AuditLogParser(host=host).parse(io.StringIO(text))
    return trace
