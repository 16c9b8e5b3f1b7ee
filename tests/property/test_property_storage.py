"""Property-based tests for the storage engines (hypothesis)."""

from __future__ import annotations

import sqlite3
import tempfile
from bisect import bisect_right
from dataclasses import replace as dc_replace
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.auditing.entities import EntityType, FileEntity, ProcessEntity
from repro.auditing.events import Operation, SystemEvent
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.model import Edge
from repro.storage.relational.database import (
    DEFAULT_HASH_INDEXES,
    DEFAULT_SORTED_INDEXES,
    EVENT_SCHEMA,
    RelationalDatabase,
    audit_table,
)
from repro.storage.relational.executor import QueryExecutor
from repro.storage.relational.expression import (
    And,
    Between,
    Column,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
    Or,
    equality_lookups,
    escape_like,
    like_has_wildcards,
    unescape_like,
)
from repro.storage.relational.index import HashIndex, SortedIndex
from repro.storage.relational.query import SelectQuery
from repro.storage.relational.table import ColumnDefinition, Table, TableSchema
from repro.storage.segment.segment import SegmentReader, write_segment
from repro.storage.sql.render import render_expression
from repro.tbql.ast import AttributeComparison, FilterExpression, FilterOperator
from repro.tbql.canonical import canonicalize_query
from repro.tbql.filters import filter_to_expression
from repro.tbql.parser import parse_query

_values = st.integers(min_value=-50, max_value=50)
_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])


class TestExpressionProperties:
    @given(st.integers(), st.integers())
    def test_comparison_matches_python_semantics(self, left, right):
        row = {"x": left}
        assert Comparison(Column("x"), "<", Literal(right)).evaluate(row) == (left < right)
        assert Comparison(Column("x"), "=", Literal(right)).evaluate(row) == (left == right)
        assert Comparison(Column("x"), ">=", Literal(right)).evaluate(row) == (left >= right)

    @given(st.booleans(), st.booleans())
    def test_boolean_combinators_truth_table(self, a, b):
        row = {"a": 1 if a else 0, "b": 1 if b else 0}
        expr_a = Comparison(Column("a"), "=", Literal(1))
        expr_b = Comparison(Column("b"), "=", Literal(1))
        assert And([expr_a, expr_b]).evaluate(row) == (a and b)
        assert Or([expr_a, expr_b]).evaluate(row) == (a or b)
        assert Not(expr_a).evaluate(row) == (not a)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20))
    @example("\\")
    @example("10.0.0.5\\")
    @example("50%_\\x")
    def test_like_without_wildcards_is_equality(self, value):
        r"""``escape_like(value)`` is a wildcard-free pattern meaning exactly ``value``.

        ``\%``, ``\_`` and ``\\`` in a pattern denote one literal ``%``, ``_`` and
        backslash, so the escaped spelling — not the raw value — is what
        matches.  Every consumer of the convention must find the same row.
        """
        pattern = escape_like(value)
        assert not like_has_wildcards(pattern)
        assert unescape_like(pattern) == value
        like = Like(Column("name"), pattern)
        assert like.evaluate({"name": value})

        # Index lookup: the planner turns the pattern into a hash-index probe.
        table = Table(TestTableProperties._schema)
        table.create_hash_index("name")
        table.insert({"id": 0, "name": value, "size": 1})
        table.insert({"id": 1, "name": value + "-decoy", "size": 1})
        assert equality_lookups(like) == {"name": value}
        query = SelectQuery()
        query.add_table("t", "t")
        query.add_filter("t", like)
        query.add_output("t", "id")
        executor = QueryExecutor({"t": table})
        assert executor.plan(query).access_paths["t"].kind == "index-eq"
        assert list(executor.execute(query).rows) == [(0,)]

        # The parameterized sqlite rendering.
        rendered = render_expression(like, alias=None, parameterized=True)
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("CREATE TABLE t (id INTEGER, name TEXT)")
            connection.executemany(
                "INSERT INTO t VALUES (?, ?)", [(0, value), (1, value + "-decoy")]
            )
            found = connection.execute(
                f"SELECT id FROM t WHERE {rendered.text}", rendered.parameters
            ).fetchall()
        finally:
            connection.close()
        assert found == [(0,)]

        # The corpus canonicalizer's LIKE -> EQ rewrite keeps the meaning.
        query_ast = parse_query('proc p read file f["x"] as e1 return f')
        pattern_ast = query_ast.patterns[0]
        comparison = AttributeComparison("name", FilterOperator.LIKE, pattern)
        declared = dc_replace(pattern_ast.obj, filter=FilterExpression.leaf(comparison))
        canonical = canonicalize_query(
            dc_replace(query_ast, patterns=[dc_replace(pattern_ast, obj=declared)])
        )
        rewritten = filter_to_expression(canonical.patterns[0].obj.filter, EntityType.FILE)
        assert rewritten.evaluate({"name": value})
        assert not rewritten.evaluate({"name": value + "-decoy"})

    @given(
        st.text(alphabet="abc/.", max_size=10),
        st.text(alphabet="abc/.", max_size=10),
        st.text(alphabet="abc/.", max_size=10),
    )
    def test_like_contains_pattern(self, prefix, middle, suffix):
        row = {"name": prefix + middle + suffix}
        assert Like(Column("name"), f"%{middle}%").evaluate(row)

    @given(_values, _values, _values)
    def test_between_matches_interval_membership(self, value, low, high):
        low, high = min(low, high), max(low, high)
        row = {"t": value}
        assert Between(Column("t"), low, high).evaluate(row) == (low <= value <= high)

    @given(st.lists(_values, min_size=1, max_size=5), _values)
    def test_inlist_matches_membership(self, values, probe):
        row = {"x": probe}
        assert InList(Column("x"), tuple(values)).evaluate(row) == (probe in values)


class TestIndexProperties:
    @given(st.lists(st.tuples(_names, st.integers(0, 100)), max_size=60))
    def test_hash_index_agrees_with_brute_force(self, entries):
        index = HashIndex("name")
        for position, (value, _) in enumerate(entries):
            index.insert(value, position)
        for probe in ("alpha", "beta", "gamma", "delta"):
            expected = [position for position, (value, _) in enumerate(entries) if value == probe]
            assert index.lookup(probe) == expected

    @given(
        st.lists(_values, max_size=60),
        _values,
        _values,
    )
    def test_sorted_index_range_agrees_with_brute_force(self, values, low, high):
        low, high = min(low, high), max(low, high)
        index = SortedIndex("t")
        for position, value in enumerate(values):
            index.insert(value, position)
        expected = sorted(
            position for position, value in enumerate(values) if low <= value <= high
        )
        assert sorted(index.range(low, high)) == expected

    @given(st.lists(_values, max_size=60))
    def test_sorted_index_full_range_returns_everything(self, values):
        index = SortedIndex("t")
        for position, value in enumerate(values):
            index.insert(value, position)
        assert sorted(index.range()) == list(range(len(values)))


class TestTableProperties:
    _schema = TableSchema(
        name="t",
        columns=(
            ColumnDefinition("id", int, nullable=False),
            ColumnDefinition("name", str),
            ColumnDefinition("size", int),
        ),
    )

    @settings(max_examples=50)
    @given(st.lists(st.tuples(_names, st.integers(0, 30)), max_size=40))
    def test_indexed_lookup_agrees_with_scan(self, rows):
        table = Table(self._schema)
        table.create_hash_index("name")
        table.create_sorted_index("size")
        for index, (name, size) in enumerate(rows):
            table.insert({"id": index, "name": name, "size": size})
        for probe in ("alpha", "delta"):
            via_index = sorted(row["id"] for row in table.lookup_equal("name", probe))
            via_scan = sorted(row["id"] for row in table.scan() if row["name"] == probe)
            assert via_index == via_scan
        via_index = sorted(row["id"] for row in table.lookup_range("size", 5, 20))
        via_scan = sorted(row["id"] for row in table.scan() if 5 <= row["size"] <= 20)
        assert via_index == via_scan

    @settings(max_examples=50)
    @given(st.lists(st.tuples(_names, st.integers(0, 30)), max_size=40))
    def test_row_count_matches_inserts(self, rows):
        table = Table(self._schema)
        for index, (name, size) in enumerate(rows):
            table.insert({"id": index, "name": name, "size": size})
        assert len(table) == len(rows)
        assert len(list(table.scan())) == len(rows)


# -- a batch equals the same rows one at a time --------------------------------

_ENTITIES = [
    *(ProcessEntity(entity_id=index, exename=f"/bin/p{index}", pid=index) for index in (1, 2, 3)),
    *(FileEntity(entity_id=index, name=f"/tmp/f{index}") for index in (4, 5, 6)),
]

#: (subject id, object id, start time): starts drawn from a narrow range, so
#: a batch holds ties and arrives out of order.
_event_specs = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(0, 12)), max_size=40
)


@st.composite
def _split(draw, items):
    """``items`` cut into consecutive batches, empty batches included."""
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0, *cuts, len(items)]
    return [items[low:high] for low, high in zip(bounds, bounds[1:])]


def _events(specs) -> list[SystemEvent]:
    events = []
    for event_id, (subject, obj, start) in enumerate(specs, start=1):
        is_file = obj > 3
        events.append(
            SystemEvent(
                event_id=event_id,
                subject_id=subject,
                object_id=obj,
                operation=(Operation.READ, Operation.WRITE)[event_id % 2]
                if is_file
                else Operation.FORK,
                object_type=EntityType.FILE if is_file else EntityType.PROCESS,
                start_time=start,
                end_time=start + event_id % 3,
                amount=event_id % 4 * 100,
            )
        )
    return events


def _table_state(table: Table) -> tuple:
    """Column arrays, every hash bucket (as a list) and every sorted-index
    entry, in index order."""
    return (
        {name: list(values) for name, values in table.column_store().items()},
        {
            column: {value: list(bucket) for value, bucket in index._buckets.items()}
            for column, index in table._hash_indexes.items()
        },
        {column: list(index._entries) for column, index in table._sorted_indexes.items()},
    )


def _one_row_at_a_time(schema: TableSchema, rows, hashed, ordered) -> tuple:
    """Reference: each row appended to every column and to a plain
    value → positions dict per hash index, and each sorted index fed by its
    single-row ``insert`` (an ``insort``)."""
    columns: dict[str, list] = {name: [] for name in schema.column_names()}
    buckets: dict[str, dict] = {column: {} for column in hashed}
    sorted_indexes = {column: SortedIndex(column) for column in ordered}
    for position, row in enumerate(rows):
        for name, values in columns.items():
            values.append(row.get(name))
        for column, by_value in buckets.items():
            by_value.setdefault(row.get(column), []).append(position)
        for column, index in sorted_indexes.items():
            index.insert(row.get(column), position)
    return (
        columns,
        buckets,
        {column: list(index._entries) for column, index in sorted_indexes.items()},
    )


def _graph_state(graph: GraphDatabase) -> tuple:
    """Every adjacency bucket's ``starts``/``edge_ids`` (in bucket order) and
    the global and per-relationship time indexes."""

    def buckets(adjacency):
        return {
            node: [(kind, bucket.starts, bucket.edge_ids) for kind, bucket in by_type.items()]
            for node, by_type in adjacency.items()
        }

    return (
        buckets(graph._outgoing),
        buckets(graph._incoming),
        (graph._edges_by_time.starts, graph._edges_by_time.edge_ids),
        [
            (kind, bucket.starts, bucket.edge_ids)
            for kind, bucket in graph._edges_by_time_by_relationship.items()
        ],
        {edge_id: graph.edge(edge_id) for edge_id in sorted(graph._edges)},
    )


def _time_sorted_reference(events) -> tuple:
    """Reference graph indexes: each edge inserted after every stored edge
    that starts no later (``bisect_right``), one edge at a time."""
    outgoing: dict = {}
    incoming: dict = {}
    everything = ([], [])
    by_kind: dict = {}

    def put(index, event):
        at = bisect_right(index[0], event.start_time)
        index[0].insert(at, event.start_time)
        index[1].insert(at, event.event_id)

    for event in events:
        kind = event.operation.value
        put(outgoing.setdefault(event.subject_id, {}).setdefault(kind, ([], [])), event)
        put(incoming.setdefault(event.object_id, {}).setdefault(kind, ([], [])), event)
        put(everything, event)
        put(by_kind.setdefault(kind, ([], [])), event)

    def buckets(adjacency):
        return {
            node: [(kind, *bucket) for kind, bucket in by_type.items()]
            for node, by_type in adjacency.items()
        }

    return (
        buckets(outgoing),
        buckets(incoming),
        everything,
        [(kind, *bucket) for kind, bucket in by_kind.items()],
    )


class TestBatchEqualsOneRowAtATime:
    """``Table.append_columns`` and ``GraphDatabase.append_batch`` take a batch
    in one step; the result must be what inserting the same rows one at a
    time builds, down to index entry order."""

    _schema = TableSchema(
        name="t",
        columns=(
            ColumnDefinition("id", int, nullable=False),
            ColumnDefinition("name", str),
            ColumnDefinition("size", int),
        ),
    )

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(st.none() | _names, st.none() | st.integers(0, 6)), max_size=40
        ).flatmap(_split)
    )
    def test_table_batches_equal_single_rows(self, batches):
        table = Table(self._schema)
        table.create_hash_index("name")
        table.create_sorted_index("size")
        singles = Table(self._schema)
        singles.create_hash_index("name")
        singles.create_sorted_index("size")
        rows = []
        for batch in batches:
            ids = list(range(len(rows), len(rows) + len(batch)))
            table.append_columns(
                {"id": ids, "name": [name for name, _ in batch], "size": [s for _, s in batch]},
                len(batch),
            )
            rows.extend(
                {"id": i, "name": name, "size": size} for i, (name, size) in zip(ids, batch)
            )
        for row in rows:
            singles.insert(row)
        expected = _one_row_at_a_time(self._schema, rows, ["name"], ["size"])
        assert _table_state(table) == expected
        assert _table_state(singles) == expected

    @settings(max_examples=80)
    @given(_event_specs.flatmap(lambda specs: _split(_events(specs))))
    def test_store_batches_equal_single_events(self, batches):
        events = [event for batch in batches for event in batch]
        relational, graph = RelationalDatabase(), GraphDatabase()
        relational.append_batch(_ENTITIES, ())
        graph.append_batch(_ENTITIES, ())
        for batch in batches:
            relational.append_batch((), batch)
            graph.append_batch((), iter(batch))
        singles = GraphDatabase()
        singles.append_batch(_ENTITIES, ())
        for event in events:
            singles.add_edge(
                Edge(
                    edge_id=event.event_id,
                    source_id=event.subject_id,
                    target_id=event.object_id,
                    relationship=event.operation.value,
                    properties={
                        "starttime": event.start_time,
                        "endtime": event.end_time,
                        "amount": event.amount,
                        "eventtype": event.event_type.value,
                        "host": event.host,
                    },
                )
            )
        rows = [event.to_row() for event in events]
        assert _table_state(relational.table("events")) == _one_row_at_a_time(
            EVENT_SCHEMA,
            rows,
            DEFAULT_HASH_INDEXES["events"],
            DEFAULT_SORTED_INDEXES["events"],
        )
        assert _graph_state(graph) == _graph_state(singles)
        assert _graph_state(graph)[:4] == _time_sorted_reference(events)

    @settings(max_examples=30, deadline=None)
    @given(_event_specs.map(_events))
    def test_segment_table_equals_the_rows_inserted_one_at_a_time(self, events):
        rows = [event.to_row() for event in events]
        columns = {name: [row[name] for row in rows] for name in EVENT_SCHEMA.column_names()}
        with tempfile.TemporaryDirectory() as directory:
            entry = write_segment(Path(directory), "seg", {"events": (EVENT_SCHEMA, columns)})
            decoded = SegmentReader(Path(directory) / "seg", entry).table("events")
            singles = audit_table("events")
            for row in rows:
                singles.insert(row)
            assert _table_state(decoded) == _table_state(singles)
