"""The relational audit database (PostgreSQL substitute).

:class:`RelationalDatabase` owns the audit schema — an ``entities`` table and
an ``events`` table, mirroring how the paper stores "system entities and
system events in tables" — plus the indexes "created on key attributes to
speed up the search".  It takes rows in batches
(:meth:`RelationalDatabase.append_batch`) and executes queries through
:class:`~repro.storage.relational.executor.QueryExecutor`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.auditing.entities import SystemEntity
from repro.auditing.events import SystemEvent
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

#: The audit tables by name.
AUDIT_SCHEMAS: dict[str, TableSchema] = {"entities": ENTITY_SCHEMA, "events": EVENT_SCHEMA}


def event_columns(events: Sequence[SystemEvent]) -> dict[str, list[Any]]:
    """The ``events`` rows of ``events``, column-wise, read straight from the
    event attributes (no row dict per event).  The ``eventtype`` is the
    object's entity type by value (see
    :func:`~repro.auditing.events.event_type_for_object`)."""
    return {
        "id": [event.event_id for event in events],
        "srcid": [event.subject_id for event in events],
        "dstid": [event.object_id for event in events],
        "optype": [event.operation._value_ for event in events],
        "eventtype": [event.object_type._value_ for event in events],
        "starttime": [event.start_time for event in events],
        "endtime": [event.end_time for event in events],
        "amount": [event.amount for event in events],
        "host": [event.host for event in events],
    }


def entity_columns(entities: Sequence[SystemEntity]) -> dict[str, list[Any]]:
    """The ``entities`` rows of ``entities``, column-wise: ``id`` and
    ``type``, then each entity attribute of the column's name (``None`` where
    the entity's type has no such attribute, as in its ``to_row``)."""
    columns = {
        "id": [entity.entity_id for entity in entities],
        "type": [entity.entity_type._value_ for entity in entities],
    }
    for name in ENTITY_SCHEMA.column_names()[2:]:
        columns[name] = [getattr(entity, name, None) for entity in entities]
    return columns


def validate_batch(entities: Sequence[SystemEntity], events: Sequence[SystemEvent]) -> None:
    """Raise the :class:`~repro.errors.SchemaError` that storing this batch
    would raise, without writing anything."""
    ENTITY_SCHEMA.validate_columns(entity_columns(entities), len(entities))
    EVENT_SCHEMA.validate_columns(event_columns(events), len(events))


def audit_table(name: str) -> Table:
    """An empty audit table ``name`` carrying its default hash and sorted indexes.

    Raises:
        QueryError: for unknown table names.
    """
    schema = AUDIT_SCHEMAS.get(name)
    if schema is None:
        raise QueryError(f"unknown table {name!r}")
    table = Table(schema)
    for column in DEFAULT_HASH_INDEXES[name]:
        table.create_hash_index(column)
    for column in DEFAULT_SORTED_INDEXES[name]:
        table.create_sorted_index(column)
    return table


class RelationalDatabase:
    """In-memory relational store for audit logging data."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self.clear()
        self._executor = QueryExecutor(self._tables)

    def clear(self) -> None:
        """Drop every row and rebuild the audit schema with fresh indexes."""
        for name in AUDIT_SCHEMAS:
            self.truncate(name)

    def truncate(self, name: str) -> None:
        """Drop every row of one audit table, keeping its schema and indexes."""
        self._tables[name] = audit_table(name)

    # -- loading -----------------------------------------------------------

    def has_entity(self, entity_id: int) -> bool:
        """True when an entity row with ``entity_id`` is already stored."""
        return bool(self._tables["entities"].positions_equal("id", entity_id))

    def append_batch(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent]
    ) -> dict[str, int]:
        """Insert one batch of entity and event rows; returns per-table counts.

        Rows are inserted as given: :class:`~repro.storage.loader.AuditStore`
        drops entities already stored and refuses repeated event ids first.
        Each table takes the batch in one columnar step, all or nothing.
        """
        entity_list, event_list = list(entities), list(events)
        return {
            "entities": self._tables["entities"].append_columns(
                entity_columns(entity_list), len(entity_list)
            ),
            "events": self._tables["events"].append_columns(
                event_columns(event_list), len(event_list)
            ),
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
