"""System event model for audit logging data.

A system event is an interaction between two system entities represented as
⟨subject, operation, object⟩.  Subjects are processes; objects can be files,
processes, or network connections.  Events are categorised into three types
according to the object entity type: **file events**, **process events** and
**network events**.

Representative event attributes follow the paper: subject/object entity ids,
operation, and start/end timestamps.  The reproduction additionally records
the byte count of data transferred (``amount``) because the Causality
Preserved Reduction technique aggregates it when merging events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping

from repro.auditing.entities import EntityType, SystemEntity


class Operation(enum.Enum):
    """Operations observed between system entities.

    The set mirrors the system-call categories Sysdig reports, grouped into the
    operations TBQL exposes.  File operations target file objects, process
    operations target process objects, and network operations target network
    connection objects.
    """

    # File operations.
    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"
    CREATE = "create"
    DELETE = "delete"
    RENAME = "rename"
    CHMOD = "chmod"
    # Process operations.
    FORK = "fork"
    EXEC = "exec"
    KILL = "kill"
    # Network operations.
    CONNECT = "connect"
    ACCEPT = "accept"
    SEND = "send"
    RECV = "recv"

    @classmethod
    def from_string(cls, value: str) -> "Operation":
        """Parse an operation name, accepting common syscall aliases."""
        operation = OPERATION_NAMES.get(value)
        if operation is None:
            operation = OPERATION_NAMES.get(value.strip().lower())
            if operation is None:
                raise ValueError(f"unknown operation: {value!r}")
        return operation


#: Every lowercase operation name :meth:`Operation.from_string` accepts: the
#: canonical values plus common syscall aliases.
OPERATION_NAMES: dict[str, Operation] = {
    **{operation.value: operation for operation in Operation},
    "readv": Operation.READ,
    "pread": Operation.READ,
    "writev": Operation.WRITE,
    "pwrite": Operation.WRITE,
    "execve": Operation.EXEC,
    "clone": Operation.FORK,
    "vfork": Operation.FORK,
    "unlink": Operation.DELETE,
    "unlinkat": Operation.DELETE,
    "open": Operation.READ,
    "openat": Operation.READ,
    "sendto": Operation.SEND,
    "sendmsg": Operation.SEND,
    "recvfrom": Operation.RECV,
    "recvmsg": Operation.RECV,
}


class EventType(enum.Enum):
    """Event category determined by the object entity type."""

    FILE = "file"
    PROCESS = "process"
    NETWORK = "network"


#: Operations valid for each event type (used by TBQL semantic checking).
OPERATIONS_BY_EVENT_TYPE: dict[EventType, frozenset[Operation]] = {
    EventType.FILE: frozenset(
        {
            Operation.READ,
            Operation.WRITE,
            Operation.EXECUTE,
            Operation.CREATE,
            Operation.DELETE,
            Operation.RENAME,
            Operation.CHMOD,
        }
    ),
    EventType.PROCESS: frozenset({Operation.FORK, Operation.EXEC, Operation.KILL}),
    EventType.NETWORK: frozenset(
        {Operation.CONNECT, Operation.ACCEPT, Operation.SEND, Operation.RECV}
    ),
}


#: Canonical member by value, so the per-event paths look a value up in a
#: dict instead of calling the ``Enum`` constructor.
_OPERATIONS: dict[str, Operation] = {member.value: member for member in Operation}
_EVENT_TYPES: dict[str, EventType] = {member.value: member for member in EventType}
_ENTITY_TYPES: dict[str, EntityType] = {member.value: member for member in EntityType}


def _member(members: dict[str, Any], value: Any, kind: str) -> Any:
    """``members[value]``, or the ``ValueError`` the ``Enum`` constructor raises."""
    try:
        return members[value]
    except (KeyError, TypeError):
        raise ValueError(f"{value!r} is not a valid {kind}") from None


def event_type_for_object(object_type: EntityType) -> EventType:
    """Map an object entity type to the event category it produces."""
    return _EVENT_TYPES[object_type._value_]


@dataclass(frozen=True, slots=True)
class SystemEvent:
    """One audited interaction ⟨subject, operation, object⟩.

    Attributes:
        event_id: Trace-unique integer identifier.
        subject_id: Entity id of the subject (always a process).
        object_id: Entity id of the object (file, process or network).
        operation: The operation performed.
        object_type: Entity type of the object, determining the event type.
        start_time: Start timestamp in nanoseconds since the trace epoch.
        end_time: End timestamp in nanoseconds since the trace epoch.
        amount: Bytes transferred (reads/writes/sends/recvs), 0 otherwise.
        host: Hostname of the monitored machine.
    """

    event_id: int
    subject_id: int
    object_id: int
    operation: Operation
    object_type: EntityType
    start_time: int
    end_time: int
    amount: int = 0
    host: str = "localhost"

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError(
                f"event {self.event_id}: end_time {self.end_time} precedes "
                f"start_time {self.start_time}"
            )

    @property
    def event_type(self) -> EventType:
        """Event category (file/process/network) from the object type."""
        return _EVENT_TYPES[self.object_type._value_]

    def occurs_before(self, other: "SystemEvent") -> bool:
        """True when this event finishes before ``other`` starts."""
        return self.end_time <= other.start_time

    def to_row(self) -> dict[str, Any]:
        """Serialise the event into a storage row."""
        return {
            "id": self.event_id,
            "srcid": self.subject_id,
            "dstid": self.object_id,
            "optype": self.operation.value,
            "eventtype": self.event_type.value,
            "starttime": self.start_time,
            "endtime": self.end_time,
            "amount": self.amount,
            "host": self.host,
        }

    def spanning(self, start_time: int, end_time: int, amount: int) -> "SystemEvent":
        """This event (same id, edge and host) over another window and byte count."""
        return SystemEvent(
            self.event_id,
            self.subject_id,
            self.object_id,
            self.operation,
            self.object_type,
            start_time,
            end_time,
            amount,
            self.host,
        )


def event_from_row(row: Mapping[str, Any]) -> SystemEvent:
    """Reconstruct a :class:`SystemEvent` from a storage row."""
    return SystemEvent(
        event_id=int(row["id"]),
        subject_id=int(row["srcid"]),
        object_id=int(row["dstid"]),
        operation=_member(_OPERATIONS, row["optype"], "Operation"),
        object_type=_member(
            _ENTITY_TYPES,
            row.get("objecttype", row.get("eventtype", "file")),
            "EntityType",
        ),
        start_time=int(row["starttime"]),
        end_time=int(row["endtime"]),
        amount=int(row.get("amount", 0) or 0),
        host=row.get("host", "localhost"),
    )


@dataclass
class EventFactory:
    """Allocates trace-unique event ids and validates subject/object typing."""

    host: str = "localhost"
    _next_id: int = 1

    def create(
        self,
        subject: SystemEntity,
        operation: Operation,
        obj: SystemEntity,
        start_time: int,
        end_time: int | None = None,
        amount: int = 0,
    ) -> SystemEvent:
        """Create a new event between ``subject`` and ``obj``.

        Raises:
            ValueError: if the subject is not a process or the operation is not
                valid for the object's entity type.
        """
        if subject.entity_type is not EntityType.PROCESS:
            raise ValueError(
                f"event subject must be a process, got {subject.entity_type.value}"
            )
        event_type = event_type_for_object(obj.entity_type)
        if operation not in OPERATIONS_BY_EVENT_TYPE[event_type]:
            raise ValueError(
                f"operation {operation.value!r} is not valid for "
                f"{event_type.value} events"
            )
        event = SystemEvent(
            event_id=self._next_id,
            subject_id=subject.entity_id,
            object_id=obj.entity_id,
            operation=operation,
            object_type=obj.entity_type,
            start_time=start_time,
            end_time=end_time if end_time is not None else start_time,
            amount=amount,
            host=self.host,
        )
        self._next_id += 1
        return event
