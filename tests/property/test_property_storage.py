"""Property-based tests for the storage engines (hypothesis)."""

from __future__ import annotations

import sqlite3
from dataclasses import replace as dc_replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.auditing.entities import EntityType
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
