"""System auditing substrate: entities, events, log format, parsing, CPR.

This package replaces the paper's Sysdig-based kernel auditing with a
deterministic host simulator while keeping the downstream data model (system
entities, system events, Sysdig-style log records) identical.
"""

from repro.auditing.entities import (
    DEFAULT_ATTRIBUTE,
    ENTITY_ATTRIBUTES,
    EntityFactory,
    EntityType,
    FileEntity,
    NetworkEntity,
    ProcessEntity,
    SystemEntity,
    entity_from_row,
)
from repro.auditing.events import (
    OPERATIONS_BY_EVENT_TYPE,
    EventFactory,
    EventType,
    Operation,
    SystemEvent,
    event_from_row,
    event_type_for_object,
)
from repro.auditing.parser import AuditLogParser, ParseStatistics, parse_log_text
from repro.auditing.reduction import IncrementalReducer, ReductionStats
from repro.auditing.trace import AuditTrace

__all__ = [
    "AuditLogParser",
    "AuditTrace",
    "DEFAULT_ATTRIBUTE",
    "ENTITY_ATTRIBUTES",
    "EntityFactory",
    "EntityType",
    "EventFactory",
    "EventType",
    "FileEntity",
    "IncrementalReducer",
    "NetworkEntity",
    "OPERATIONS_BY_EVENT_TYPE",
    "Operation",
    "ParseStatistics",
    "ProcessEntity",
    "ReductionStats",
    "SystemEntity",
    "SystemEvent",
    "entity_from_row",
    "event_from_row",
    "event_type_for_object",
    "parse_log_text",
]
