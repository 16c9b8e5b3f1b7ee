"""sqlite3 oracle for relational data queries.

The paper compiles each TBQL pattern "into a SQL data query which joins
entity tables with event table".  :class:`SqliteRelationalDatabase` runs that
query — rendered to parameterized SQL by :mod:`repro.storage.sql.render` — on
an in-memory sqlite database holding the audit schema.  sqlite shares no code
with the Python executor, so agreement on result rows is strong evidence both
are right.  It is a test oracle: schema, bulk load and ``execute`` only.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable, Mapping

from repro.auditing.trace import AuditTrace
from repro.storage.relational.database import (
    DEFAULT_HASH_INDEXES,
    DEFAULT_SORTED_INDEXES,
    ENTITY_SCHEMA,
    EVENT_SCHEMA,
)
from repro.storage.relational.query import OutputColumn, QueryResult, SelectQuery
from repro.storage.relational.table import TableSchema
from repro.storage.sql.render import RenderedSQL, render_select_query

_AFFINITY = {int: "INTEGER", str: "TEXT"}
_SCHEMAS = {ENTITY_SCHEMA.name: ENTITY_SCHEMA, EVENT_SCHEMA.name: EVENT_SCHEMA}


def _create_table_sql(schema: TableSchema) -> str:
    columns = []
    for column in schema.columns:
        affinity = _AFFINITY.get(column.dtype or object, "")
        definition = f"{column.name} {affinity}".rstrip()
        if not column.nullable:
            definition += " NOT NULL"
        columns.append(definition)
    return f"CREATE TABLE {schema.name} ({', '.join(columns)})"


class SqliteRelationalDatabase:
    """In-memory sqlite3 copy of the audit tables.

    The schema and index set mirror the in-memory engine's
    (:data:`ENTITY_SCHEMA` / :data:`EVENT_SCHEMA` plus the default hash and
    sorted index columns, all rendered as ordinary sqlite indexes).
    """

    def __init__(self) -> None:
        self._connection = sqlite3.connect(":memory:")
        cursor = self._connection.cursor()
        for schema in _SCHEMAS.values():
            cursor.execute(_create_table_sql(schema))
            indexed = dict.fromkeys(
                DEFAULT_HASH_INDEXES[schema.name] + DEFAULT_SORTED_INDEXES[schema.name]
            )
            for column in indexed:
                cursor.execute(
                    f"CREATE INDEX idx_{schema.name}_{column} "
                    f"ON {schema.name} ({column})"
                )
        self._connection.commit()

    # -- loading -----------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk-insert row dicts into one audit table; returns the number inserted."""
        schema = _SCHEMAS[table_name]
        columns = schema.column_names()
        statement = (
            f"INSERT INTO {table_name} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})"
        )
        tuples = [
            tuple(validated[column] for column in columns)
            for validated in (schema.validate_row(row) for row in rows)
        ]
        self._connection.executemany(statement, tuples)
        self._connection.commit()
        return len(tuples)

    def load_trace(self, trace: AuditTrace) -> dict[str, int]:
        """Load a full audit trace; returns per-table row counts inserted."""
        return {
            "entities": self.insert_rows("entities", (e.to_row() for e in trace.entities)),
            "events": self.insert_rows("events", (e.to_row() for e in trace.events)),
        }

    # -- querying ----------------------------------------------------------

    def _rendered(self, query: SelectQuery) -> RenderedSQL:
        if query.projection:
            return render_select_query(query, parameterized=True)
        # Empty projection means "all columns of all aliases"; expand it from
        # the schema so output names stay the qualified ``alias.column`` form
        # the Python executor produces.
        expanded = SelectQuery(
            tables=list(query.tables),
            filters=dict(query.filters),
            joins=list(query.joins),
            cross_filters=list(query.cross_filters),
            projection=[
                OutputColumn(alias=ref.alias, column=column)
                for ref in query.tables
                for column in _SCHEMAS[ref.table].column_names()
            ],
            distinct=query.distinct,
            order_by=list(query.order_by),
            limit=query.limit,
        )
        return render_select_query(expanded, parameterized=True)

    def execute(self, query: SelectQuery) -> QueryResult:
        """Execute a select-project-join query inside sqlite."""
        rendered = self._rendered(query)
        cursor = self._connection.execute(rendered.text, rendered.parameters)
        columns = tuple(description[0] for description in cursor.description)
        rows = tuple(tuple(row) for row in cursor.fetchall())
        return QueryResult(columns=columns, rows=rows)
