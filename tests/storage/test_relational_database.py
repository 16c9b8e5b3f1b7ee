"""Unit tests for the relational database, planner and executor."""

from __future__ import annotations

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.errors import QueryError
from repro.storage.relational.database import RelationalDatabase
from repro.storage.relational.expression import Between, Column, Comparison, Like, Literal
from repro.storage.relational.query import OrderBy, SelectQuery
from repro.storage.sql.render import render_select_query


def render_select(query: SelectQuery, pretty: bool = True) -> str:
    return render_select_query(query, parameterized=False, pretty=pretty).text


@pytest.fixture
def database() -> RelationalDatabase:
    database = RelationalDatabase()
    entities = [
        ProcessEntity(entity_id=1, exename="/bin/tar", pid=10),
        ProcessEntity(entity_id=2, exename="/usr/bin/curl", pid=11),
        FileEntity(entity_id=3, name="/etc/passwd"),
        FileEntity(entity_id=4, name="/tmp/upload.tar"),
    ]
    events = [
        SystemEvent(1, 1, 3, Operation.READ, EntityType.FILE, 100, 110, 10),
        SystemEvent(2, 1, 4, Operation.WRITE, EntityType.FILE, 200, 210, 10),
        SystemEvent(3, 2, 4, Operation.READ, EntityType.FILE, 300, 310, 10),
    ]
    database.append_batch(entities, events)
    return database


def _join_query(exename_pattern: str = "%/bin/tar%") -> SelectQuery:
    query = SelectQuery()
    query.add_table("events", "e")
    query.add_table("entities", "s")
    query.add_table("entities", "o")
    query.add_join("e", "srcid", "s", "id")
    query.add_join("e", "dstid", "o", "id")
    query.add_filter("e", Comparison(Column("optype"), "=", Literal("read")))
    query.add_filter("s", Like(Column("exename"), exename_pattern))
    query.add_output("s", "exename", "subject")
    query.add_output("o", "name", "object")
    return query


class TestLoading:
    def test_load_counts(self, database: RelationalDatabase):
        assert len(database.table("entities")) == 4
        assert len(database.table("events")) == 3
        assert len(database) == 7

    def test_unknown_table_rejected(self, database: RelationalDatabase):
        with pytest.raises(QueryError):
            database.table("nonexistent")

    def test_statistics(self, database: RelationalDatabase):
        stats = database.statistics()
        assert stats["entities"]["rows"] == 4
        assert "optype" in stats["events"]["hash_indexes"]


class TestExecution:
    def test_three_way_join(self, database: RelationalDatabase):
        result = database.execute(_join_query())
        assert result.columns == ("subject", "object")
        assert result.rows == (("/bin/tar", "/etc/passwd"),)

    def test_join_with_like_wildcard(self, database: RelationalDatabase):
        result = database.execute(_join_query("%curl%"))
        assert result.rows == (("/usr/bin/curl", "/tmp/upload.tar"),)

    def test_empty_result(self, database: RelationalDatabase):
        result = database.execute(_join_query("%nonexistent%"))
        assert len(result) == 0
        assert not result

    def test_projection_defaults_to_all_columns(self, database: RelationalDatabase):
        query = SelectQuery()
        query.add_table("events", "e")
        result = database.execute(query)
        assert len(result) == 3
        assert "e.optype" in result.columns

    def test_distinct(self, database: RelationalDatabase):
        query = SelectQuery(distinct=True)
        query.add_table("events", "e")
        query.add_output("e", "optype")
        result = database.execute(query)
        assert sorted(result.column("e.optype")) == ["read", "write"]

    def test_order_by_and_limit(self, database: RelationalDatabase):
        query = SelectQuery()
        query.add_table("events", "e")
        query.add_output("e", "id")
        query.order_by.append(OrderBy("e", "id", descending=True))
        query.limit = 2
        result = database.execute(query)
        assert result.column("e.id") == [3, 2]

    def test_time_window_filter(self, database: RelationalDatabase):
        query = SelectQuery()
        query.add_table("events", "e")
        query.add_filter("e", Between(Column("starttime"), 150, 350))
        query.add_output("e", "id")
        result = database.execute(query)
        assert sorted(result.column("e.id")) == [2, 3]

    def test_cross_filter(self, database: RelationalDatabase):
        query = _join_query("%")
        query.cross_filters.append(
            Comparison(Column("s.id"), "=", Column("e.srcid"))
        )
        result = database.execute(query)
        assert len(result) == 2  # both read events

    def test_result_as_dicts_and_column(self, database: RelationalDatabase):
        result = database.execute(_join_query())
        assert result.as_dicts() == [{"subject": "/bin/tar", "object": "/etc/passwd"}]
        assert result.column("subject") == ["/bin/tar"]
        with pytest.raises(QueryError):
            result.column("missing")

    def test_result_iter_rows(self, database: RelationalDatabase):
        result = database.execute(_join_query("%"))
        assert list(result.iter_rows()) == list(result.rows)
        objects = [row for row in result.iter_rows(columns=["object"])]
        assert objects == [(value,) for value in result.column("object")]
        reordered = list(result.iter_rows(columns=["object", "subject"]))
        assert reordered == [(obj, subj) for subj, obj in result.rows]
        with pytest.raises(QueryError):
            next(result.iter_rows(columns=["missing"]))

    def test_result_column_groups_and_views(self, database: RelationalDatabase):
        query = _join_query()
        query.projection = []
        query.add_output("s", "exename", "proc.exename")
        query.add_output("o", "name", "file.name")
        query.add_output("e", "optype", "event.optype")
        result = database.execute(query)
        groups = result.column_groups()
        assert set(groups) == {"proc", "file", "event"}
        from repro.storage.relational.query import RowFieldView

        view = RowFieldView(result.rows[0], groups["proc"])
        assert view["exename"] == "/bin/tar"
        assert view.get("missing") is None
        assert dict(view) == {"exename": "/bin/tar"}
        view["extra"] = 7  # overlay write does not touch the shared field map
        assert view["extra"] == 7 and "extra" not in groups["proc"]
        assert len(view) == 2 and set(view) == {"exename", "extra"}


class TestPlanner:
    def test_plan_uses_indexes(self, database: RelationalDatabase):
        plan = database.plan(_join_query())
        kinds = {path.alias: path.kind for path in plan.access_paths.values()}
        assert kinds["e"] == "index-eq"

    def test_join_order_starts_with_most_selective(self, database: RelationalDatabase):
        plan = database.plan(_join_query())
        assert plan.join_order[0] in ("e", "s")

    def test_explain_lines(self, database: RelationalDatabase):
        # Estimated rows per alias; each alias after the first names the
        # join column it may be probed through.
        assert database.explain(_join_query()) == [
            "e: index lookup optype='read' (~2 rows)",
            "s: sequential scan (~2 rows; probe id ← e.srcid)",
            "o: sequential scan (~4 rows; probe id ← e.dstid)",
            "join order: e -> s -> o",
        ]

    def test_explain_counts_a_window_exactly(self, database: RelationalDatabase):
        query = _join_query()
        query.add_filter("e", Between(Column("starttime"), 0, 150))
        assert database.explain(query)[0] == "e: index range starttime in [0, 150] (~1 rows)"

    def test_unknown_alias_rejected(self, database: RelationalDatabase):
        query = SelectQuery()
        with pytest.raises(QueryError):
            database.execute(query)

    def test_duplicate_alias_rejected(self):
        query = SelectQuery()
        query.add_table("events", "e")
        with pytest.raises(QueryError):
            query.add_table("entities", "e")

    def test_filter_on_undeclared_alias_rejected(self):
        query = SelectQuery()
        query.add_table("events", "e")
        with pytest.raises(QueryError):
            query.add_filter("x", Comparison(Column("id"), "=", Literal(1)))


class TestSQLGeneration:
    def test_render_contains_clauses(self, database: RelationalDatabase):
        sql = render_select(_join_query())
        assert sql.startswith("SELECT")
        assert "FROM events e, entities s, entities o" in sql
        assert "e.srcid = s.id" in sql
        assert "s.exename LIKE '%/bin/tar%'" in sql

    def test_render_single_line(self):
        sql = render_select(_join_query(), pretty=False)
        assert "\n" not in sql

    def test_qualification_does_not_touch_string_literals(self):
        query = SelectQuery()
        query.add_table("entities", "s")
        query.add_filter("s", Comparison(Column("name"), "=", Literal("optype")))
        sql = render_select(query)
        assert "= 'optype'" in sql
        assert "s.name" in sql
