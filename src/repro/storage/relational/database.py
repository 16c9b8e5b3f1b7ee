"""The relational audit database (PostgreSQL substitute).

:class:`RelationalDatabase` owns the audit schema — an ``entities`` table and
an ``events`` table, mirroring how the paper stores "system entities and
system events in tables" — plus the indexes "created on key attributes to
speed up the search".  It exposes bulk loading from an
:class:`~repro.auditing.trace.AuditTrace` and query execution through
:class:`~repro.storage.relational.executor.QueryExecutor`.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.auditing.entities import SystemEntity
from repro.auditing.events import SystemEvent
from repro.auditing.trace import AuditTrace
from repro.errors import QueryError
from repro.storage.relational.executor import ExecutionPlan, QueryExecutor
from repro.storage.relational.query import QueryResult, SelectQuery
from repro.storage.relational.table import ColumnDefinition, Table, TableSchema

#: Schema of the ``entities`` table: one row per system entity, with a sparse
#: union of the per-type attributes (unused attributes are NULL), matching the
#: single-table-per-kind layout the paper describes.
ENTITY_SCHEMA = TableSchema(
    name="entities",
    columns=(
        ColumnDefinition("id", int, nullable=False),
        ColumnDefinition("type", str, nullable=False),
        ColumnDefinition("host", str),
        ColumnDefinition("name", str),
        ColumnDefinition("exename", str),
        ColumnDefinition("pid", int),
        ColumnDefinition("cmdline", str),
        ColumnDefinition("owner", str),
        ColumnDefinition("srcip", str),
        ColumnDefinition("srcport", int),
        ColumnDefinition("dstip", str),
        ColumnDefinition("dstport", int),
        ColumnDefinition("protocol", str),
    ),
)

#: Schema of the ``events`` table.
EVENT_SCHEMA = TableSchema(
    name="events",
    columns=(
        ColumnDefinition("id", int, nullable=False),
        ColumnDefinition("srcid", int, nullable=False),
        ColumnDefinition("dstid", int, nullable=False),
        ColumnDefinition("optype", str, nullable=False),
        ColumnDefinition("eventtype", str, nullable=False),
        ColumnDefinition("starttime", int, nullable=False),
        ColumnDefinition("endtime", int, nullable=False),
        ColumnDefinition("amount", int),
        ColumnDefinition("host", str),
    ),
)

#: Columns that receive hash indexes at creation time.
DEFAULT_HASH_INDEXES: dict[str, tuple[str, ...]] = {
    "entities": ("id", "type", "name", "exename", "dstip"),
    "events": ("id", "srcid", "dstid", "optype", "eventtype"),
}

#: Columns that receive sorted indexes at creation time.
DEFAULT_SORTED_INDEXES: dict[str, tuple[str, ...]] = {
    "entities": (),
    "events": ("starttime", "endtime"),
}


class RelationalDatabase:
    """In-memory relational store for audit logging data."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self.clear()
        self._executor = QueryExecutor(self._tables)

    def clear(self) -> None:
        """Drop every row and rebuild the audit schema with fresh indexes."""
        self._tables["entities"] = Table(ENTITY_SCHEMA)
        self._tables["events"] = Table(EVENT_SCHEMA)
        for table_name, columns in DEFAULT_HASH_INDEXES.items():
            for column in columns:
                self._tables[table_name].create_hash_index(column)
        for table_name, columns in DEFAULT_SORTED_INDEXES.items():
            for column in columns:
                self._tables[table_name].create_sorted_index(column)

    # -- loading -----------------------------------------------------------

    def load_entities(self, entities: Iterable[SystemEntity]) -> int:
        """Bulk-insert entities; returns the number inserted."""
        return self._tables["entities"].insert_many(entity.to_row() for entity in entities)

    def load_events(self, events: Iterable[SystemEvent]) -> int:
        """Bulk-insert events; returns the number inserted."""
        return self._tables["events"].insert_many(event.to_row() for event in events)

    def load_trace(self, trace: AuditTrace) -> dict[str, int]:
        """Load a full audit trace; returns per-table row counts inserted."""
        return {
            "entities": self.load_entities(trace.entities),
            "events": self.load_events(trace.events),
        }

    # -- incremental loading -------------------------------------------------

    def has_entity(self, entity_id: int) -> bool:
        """True when an entity row with ``entity_id`` is already stored."""
        return next(self._tables["entities"].lookup_equal("id", entity_id), None) is not None

    def append_entities(self, entities: Iterable[SystemEntity]) -> int:
        """Insert entities not yet present (by id); returns the number added."""
        count = 0
        for entity in entities:
            if not self.has_entity(entity.entity_id):
                self._tables["entities"].insert(entity.to_row())
                count += 1
        return count

    def append_events(self, events: Iterable[SystemEvent]) -> int:
        """Append events to the store; returns the number added."""
        return self.load_events(events)

    def append_batch(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent]
    ) -> dict[str, int]:
        """Incrementally append one micro-batch of entities and events.

        Unlike :meth:`load_trace` this is safe to call repeatedly: entities
        observed in earlier batches are skipped rather than duplicated.
        """
        return {
            "entities": self.append_entities(entities),
            "events": self.append_events(events),
        }

    # -- querying ----------------------------------------------------------

    def table(self, name: str) -> Table:
        """Access one of the audit tables by name.

        Raises:
            QueryError: for unknown table names.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"unknown table {name!r}") from None

    def execute(self, query: SelectQuery) -> QueryResult:
        """Execute a select-project-join query."""
        return self._executor.execute(query)

    def plan(self, query: SelectQuery) -> ExecutionPlan:
        """Plan a query without executing it."""
        return self._executor.plan(query)

    def explain(self, query: SelectQuery) -> list[str]:
        """EXPLAIN-style plan description."""
        return self._executor.explain(query)

    # -- statistics ----------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Row counts and index info for every table."""
        return {name: table.statistics() for name, table in self._tables.items()}

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())
