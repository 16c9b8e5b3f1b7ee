"""The sqlite3 oracle and the SQL renderer agree with the in-memory engine."""

from __future__ import annotations

import pytest

from repro.auditing.entities import EntityType, FileEntity, ProcessEntity
from repro.auditing.events import Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.storage.relational.database import RelationalDatabase
from repro.storage.relational.expression import (
    Column,
    Comparison,
    InList,
    Like,
    Literal,
    escape_like,
)
from repro.storage.relational.query import SelectQuery
from repro.storage.sql.render import render_select_query
from tests.oracles import SqliteRelationalDatabase


def _trace() -> AuditTrace:
    entities = [
        ProcessEntity(entity_id=1, exename="/bin/tar", pid=10),
        ProcessEntity(entity_id=2, exename="/usr/bin/curl", pid=11),
        FileEntity(entity_id=3, name="/etc/passwd"),
        FileEntity(entity_id=4, name="/tmp/a%20b.tar"),
    ]
    events = [
        SystemEvent(1, 1, 3, Operation.READ, EntityType.FILE, 100, 110, 10),
        SystemEvent(2, 1, 4, Operation.WRITE, EntityType.FILE, 200, 210, 10),
        SystemEvent(3, 2, 4, Operation.READ, EntityType.FILE, 300, 310, 10),
    ]
    return AuditTrace(entities=entities, events=events)


def _join_query(exename_pattern: str = "%/bin/tar%") -> SelectQuery:
    query = SelectQuery()
    query.add_table("events", "e")
    query.add_table("entities", "s")
    query.add_table("entities", "o")
    query.add_join("e", "srcid", "s", "id")
    query.add_join("e", "dstid", "o", "id")
    query.add_filter("e", Comparison(Column("optype"), "=", Literal("read")))
    query.add_filter("s", Like(Column("exename"), exename_pattern))
    query.add_output("e", "id", "event.id")
    query.add_output("s", "exename", "subject.exename")
    query.add_output("o", "name", "object.name")
    return query


@pytest.fixture
def sqlite_db() -> SqliteRelationalDatabase:
    database = SqliteRelationalDatabase()
    database.load_trace(_trace())
    return database


@pytest.fixture
def memory_db() -> RelationalDatabase:
    database = RelationalDatabase()
    database.load_trace(_trace())
    return database


class TestSqliteRelationalDatabase:
    def test_load_counts(self):
        assert SqliteRelationalDatabase().load_trace(_trace()) == {"entities": 4, "events": 3}

    def test_execute_matches_memory_engine(
        self, sqlite_db: SqliteRelationalDatabase, memory_db: RelationalDatabase
    ):
        query = _join_query()
        sql_result = sqlite_db.execute(query)
        memory_result = memory_db.execute(query)
        assert sql_result.columns == memory_result.columns
        assert set(sql_result.rows) == set(memory_result.rows)
        assert len(sql_result.rows) == 1
        assert sql_result.rows[0][2] == "/etc/passwd"

    def test_projection_names_survive_dots(self, sqlite_db: SqliteRelationalDatabase):
        result = sqlite_db.execute(_join_query())
        assert result.columns == ("event.id", "subject.exename", "object.name")
        groups = result.column_groups()
        assert set(groups) == {"event", "subject", "object"}

    def test_escaped_like_matches_literal_percent(
        self, sqlite_db: SqliteRelationalDatabase, memory_db: RelationalDatabase
    ):
        query = SelectQuery()
        query.add_table("entities", "o")
        query.add_filter(
            "o", Like(Column("name"), "%" + escape_like("a%20b") + "%")
        )
        query.add_output("o", "id", "object.id")
        sql_rows = set(sqlite_db.execute(query).rows)
        assert sql_rows == set(memory_db.execute(query).rows)
        assert sql_rows == {(4,)}

    def test_empty_in_list_executes(self, sqlite_db: SqliteRelationalDatabase):
        query = SelectQuery()
        query.add_table("entities", "o")
        query.add_filter("o", InList(Column("type"), ()))
        query.add_output("o", "id", "object.id")
        assert sqlite_db.execute(query).rows == ()
        negated = SelectQuery()
        negated.add_table("entities", "o")
        negated.add_filter("o", InList(Column("type"), (), negate=True))
        negated.add_output("o", "id", "object.id")
        assert len(sqlite_db.execute(negated).rows) == 4

    def test_empty_projection_expands_all_columns(
        self, sqlite_db: SqliteRelationalDatabase, memory_db: RelationalDatabase
    ):
        query = SelectQuery()
        query.add_table("events", "e")
        sql_result = sqlite_db.execute(query)
        memory_result = memory_db.execute(query)
        assert sql_result.columns == memory_result.columns
        assert set(sql_result.rows) == set(memory_result.rows)

    def test_parameterized_rendering_binds_literals(self):
        rendered = render_select_query(_join_query())
        assert "?" in rendered.text
        assert "read" in rendered.parameters
        assert "read" not in rendered.text


class TestNumericCoercionRegression:
    """String literals against int columns must compare numerically.

    Pre-fix, the in-memory engine compared ``pid > "9"`` lexicographically
    (so pid=10 did not match) while sqlite's column affinity made the same
    filter numeric — a silent cross-backend divergence.
    """

    def _pid_query(self, value) -> SelectQuery:
        query = SelectQuery()
        query.add_table("entities", "s")
        query.add_filter("s", Comparison(Column("pid"), ">", Literal(value)))
        query.add_output("s", "id", "subject.id")
        return query

    def test_typed_literal_comparison_agrees(
        self, sqlite_db: SqliteRelationalDatabase, memory_db: RelationalDatabase
    ):
        query = self._pid_query(9)
        assert set(sqlite_db.execute(query).rows) == set(memory_db.execute(query).rows)
        assert set(sqlite_db.execute(query).rows) == {(1,), (2,)}

    def test_compiler_emits_typed_literals_for_numeric_columns(self):
        from repro.auditing.entities import EntityType as ET
        from repro.tbql.ast import AttributeComparison, FilterOperator
        from repro.tbql.filters import comparison_to_expression

        expression = comparison_to_expression(
            AttributeComparison(
                attribute="pid", operator=FilterOperator.GT, value="9"
            ),
            ET.PROCESS,
        )
        assert isinstance(expression, Comparison)
        assert expression.right == Literal(9)
        # pid=10 now matches "> 9" numerically on the in-memory engine too.
        assert expression.evaluate({"pid": 10})

    def test_non_numeric_strings_stay_strings(self):
        from repro.auditing.entities import EntityType as ET
        from repro.tbql.ast import AttributeComparison, FilterOperator
        from repro.tbql.filters import comparison_to_expression

        expression = comparison_to_expression(
            AttributeComparison(
                attribute="owner", operator=FilterOperator.EQ, value="root"
            ),
            ET.PROCESS,
        )
        assert isinstance(expression, Comparison)
        assert expression.right == Literal("root")
