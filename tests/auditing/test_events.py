"""Unit tests for the system event model."""

from __future__ import annotations

import dataclasses

import pytest

from repro.auditing.entities import EntityType, FileEntity, NetworkEntity, ProcessEntity
from repro.auditing.events import (
    OPERATIONS_BY_EVENT_TYPE,
    EventFactory,
    EventType,
    Operation,
    SystemEvent,
    event_from_row,
    event_type_for_object,
)


class TestOperation:
    def test_from_string_canonical(self):
        assert Operation.from_string("read") is Operation.READ
        assert Operation.from_string("connect") is Operation.CONNECT

    def test_from_string_syscall_aliases(self):
        assert Operation.from_string("execve") is Operation.EXEC
        assert Operation.from_string("clone") is Operation.FORK
        assert Operation.from_string("sendto") is Operation.SEND
        assert Operation.from_string("openat") is Operation.READ

    def test_from_string_case_insensitive(self):
        assert Operation.from_string("  WRITE ") is Operation.WRITE

    def test_from_string_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown operation"):
            Operation.from_string("teleport")


class TestEventTypeMapping:
    def test_object_type_determines_event_type(self):
        assert event_type_for_object(EntityType.FILE) is EventType.FILE
        assert event_type_for_object(EntityType.PROCESS) is EventType.PROCESS
        assert event_type_for_object(EntityType.NETWORK) is EventType.NETWORK

    def test_operations_partitioned_by_event_type(self):
        file_operations = OPERATIONS_BY_EVENT_TYPE[EventType.FILE]
        network_operations = OPERATIONS_BY_EVENT_TYPE[EventType.NETWORK]
        assert Operation.READ in file_operations
        assert Operation.CONNECT in network_operations
        assert Operation.CONNECT not in file_operations


class TestSystemEvent:
    def _event(self, start=100, end=200, **kwargs) -> SystemEvent:
        defaults = dict(
            event_id=1,
            subject_id=10,
            object_id=20,
            operation=Operation.READ,
            object_type=EntityType.FILE,
            start_time=start,
            end_time=end,
        )
        defaults.update(kwargs)
        return SystemEvent(**defaults)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            self._event(start=200, end=100)

    def test_event_type_property(self):
        assert self._event().event_type is EventType.FILE
        assert self._event(object_type=EntityType.NETWORK, operation=Operation.CONNECT).event_type is EventType.NETWORK

    def test_occurs_before(self):
        first = self._event(start=100, end=200)
        second = self._event(start=200, end=300)
        third = self._event(start=150, end=250)
        assert first.occurs_before(second)
        assert not first.occurs_before(third)

    def test_to_row_roundtrip(self):
        event = self._event(amount=42)
        row = event.to_row()
        row["objecttype"] = event.object_type.value
        assert event_from_row(row) == event

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("optype", "readv", "Operation"),  # an alias, not a stored value
            ("optype", "teleport", "Operation"),
            ("eventtype", "socket", "EntityType"),
            ("objecttype", None, "EntityType"),
        ],
    )
    def test_from_row_refuses_an_unknown_value(self, field, value, kind):
        row = self._event().to_row()
        row[field] = value
        with pytest.raises(ValueError, match=f"{value!r} is not a valid {kind}"):
            event_from_row(row)

    def test_event_type_follows_the_object_type(self):
        for entity_type in EntityType:
            event = dataclasses.replace(self._event(), object_type=entity_type)
            assert event.event_type is EventType(entity_type.value)

    def test_spanning_takes_the_window_and_amount_and_keeps_the_rest(self):
        first = self._event(start=100, end=200, amount=10, host="h1")
        merged = first.spanning(100, 400, 15)
        assert (merged.start_time, merged.end_time, merged.amount) == (100, 400, 15)
        assert (merged.event_id, merged.subject_id, merged.object_id, merged.operation) == (
            first.event_id, first.subject_id, first.object_id, first.operation,
        )
        assert merged.host == "h1"

    def test_spanning_an_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            self._event(start=100, end=200).spanning(300, 200, 0)


class TestEventFactory:
    def setup_method(self):
        self.factory = EventFactory()
        self.process = ProcessEntity(entity_id=1, exename="/bin/cat", pid=5)
        self.file = FileEntity(entity_id=2, name="/etc/passwd")
        self.connection = NetworkEntity(entity_id=3, dstip="1.2.3.4", dstport=80)

    def test_create_file_event(self):
        event = self.factory.create(self.process, Operation.READ, self.file, start_time=10)
        assert event.subject_id == 1
        assert event.object_id == 2
        assert event.event_type is EventType.FILE

    def test_subject_must_be_process(self):
        with pytest.raises(ValueError, match="subject must be a process"):
            self.factory.create(self.file, Operation.READ, self.file, start_time=10)

    def test_operation_must_match_object_type(self):
        with pytest.raises(ValueError, match="not valid"):
            self.factory.create(self.process, Operation.CONNECT, self.file, start_time=10)

    def test_event_ids_increment(self):
        first = self.factory.create(self.process, Operation.READ, self.file, start_time=10)
        second = self.factory.create(self.process, Operation.WRITE, self.file, start_time=20)
        assert second.event_id == first.event_id + 1

    def test_end_time_defaults_to_start(self):
        event = self.factory.create(self.process, Operation.READ, self.file, start_time=10)
        assert event.end_time == 10

    def test_network_event(self):
        event = self.factory.create(self.process, Operation.CONNECT, self.connection, start_time=5)
        assert event.event_type is EventType.NETWORK
