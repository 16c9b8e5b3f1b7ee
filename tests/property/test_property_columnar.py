"""Property/stress tests for the columnar engine (hypothesis).

The vectorized position-filter paths, the positional hash-join executor and
the TBQL binding join are each compared against naive per-row reference
implementations on randomized inputs:

* ``Table.filter_positions`` vs. evaluating ``Expression.evaluate`` on every
  materialized row (the pre-columnar semantics);
* ``QueryExecutor.execute`` vs. :class:`ReferenceQueryExecutor` (the old
  row-dict executor) — row-for-row, order included, also on
  ``compile_select``-shaped star joins whose aliases are index-probed;
* ``TBQLExecutionEngine._join`` vs. a nested-loop join over binding dicts.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.relational.expression import (
    And,
    Between,
    Column,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
)
from repro.storage.relational.executor import QueryExecutor
from repro.storage.relational.query import SelectQuery
from repro.storage.relational.table import ColumnDefinition, Table, TableSchema
from repro.tbql.executor import TBQLExecutionEngine
from tests.oracles import ReferenceQueryExecutor

SCHEMA = TableSchema(
    name="items",
    columns=(
        ColumnDefinition("id", int, nullable=False),
        ColumnDefinition("name", str),
        ColumnDefinition("size", int),
        ColumnDefinition("owner", str),
    ),
)

_names = st.one_of(
    st.none(), st.sampled_from(["alpha", "beta", "gamma", "/etc/passwd", "ALPHA"])
)
_sizes = st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
_owners = st.sampled_from(["root", "www", "backup"])

_rows = st.lists(
    st.tuples(_names, _sizes, _owners), min_size=0, max_size=40
)

# Leaf predicates cover every vectorized form: comparisons in both operand
# orders (including mixed-type literals exercising the string-coercion path),
# LIKE with and without wildcards/negation, IN lists, BETWEEN, and a
# column-to-column comparison.
_leaves = st.one_of(
    # String literals on the sorted-indexed int column exercise the mixed-type
    # string-coercion path: the planner must not range-scan the index with a
    # bound that does not compare with its values.
    st.builds(
        lambda op, value: Comparison(Column("size"), op, Literal(value)),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.one_of(st.integers(-15, 15), st.sampled_from(["5", "alpha"]), st.none()),
    ),
    st.builds(
        lambda op, value: Comparison(Literal(value), op, Column("name")),
        st.sampled_from(["=", "<", ">"]),
        st.sampled_from(["alpha", "gamma", 3]),
    ),
    st.builds(
        lambda pattern, negate: Like(Column("name"), pattern, negate=negate),
        st.sampled_from(["alpha", "%a%", "a%", "%a", "_lpha", "%etc%", "%"]),
        st.booleans(),
    ),
    st.builds(
        lambda values, negate: InList(Column("owner"), tuple(values), negate=negate),
        st.lists(st.sampled_from(["root", "www", "backup", "nobody"]), min_size=1, max_size=3),
        st.booleans(),
    ),
    st.builds(
        lambda low, high: Between(Column("size"), min(low, high), max(low, high)),
        st.integers(-15, 15),
        st.integers(-15, 15),
    ),
    st.builds(lambda: Comparison(Column("id"), "=", Column("size"))),
)

_predicates = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(lambda ops: And(ops), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda ops: Or(ops), st.lists(children, min_size=1, max_size=3)),
        st.builds(Not, children),
    ),
    max_leaves=6,
)


def _build_table(rows) -> Table:
    table = Table(SCHEMA)
    table.create_hash_index("name")
    table.create_hash_index("owner")
    table.create_sorted_index("size")
    for index, (name, size, owner) in enumerate(rows):
        table.insert({"id": index, "name": name, "size": size, "owner": owner})
    return table


def _reference_positions(table: Table, predicate: Expression) -> list[int]:
    """The pre-columnar semantics: evaluate the predicate per materialized row."""
    return [
        position
        for position in table.all_positions()
        if predicate.evaluate(table.row_at(position))
    ]


class TestVectorizedFilterProperties:
    @settings(max_examples=200)
    @given(_rows, _predicates)
    def test_filter_positions_matches_per_row_evaluation(self, rows, predicate):
        table = _build_table(rows)
        assert table.filter_positions(predicate) == _reference_positions(table, predicate)

    @settings(max_examples=100)
    @given(_rows, _predicates, st.lists(st.integers(0, 39), max_size=15))
    def test_filter_respects_candidate_positions(self, rows, predicate, candidates):
        table = _build_table(rows)
        candidates = [p for p in candidates if p < len(table)]
        expected = [
            p for p in candidates if predicate.evaluate(table.row_at(p))
        ]
        assert table.filter_positions(predicate, candidates) == expected

    @settings(max_examples=100)
    @given(_rows, _predicates)
    def test_scan_yields_rows_in_position_order(self, rows, predicate):
        table = _build_table(rows)
        scanned = [row["id"] for row in table.scan(predicate)]
        assert scanned == _reference_positions(table, predicate)


class TestExecutorAgainstReference:
    """The positional executor returns exactly what the row-dict one does."""

    @settings(max_examples=100, deadline=None)
    @given(_rows, _predicates, st.booleans())
    def test_single_table_query(self, rows, predicate, distinct):
        table = _build_table(rows)
        tables = {"items": table}
        query = SelectQuery(distinct=distinct)
        query.add_table("items", "t")
        query.add_filter("t", predicate)
        query.add_output("t", "id")
        query.add_output("t", "name")
        columnar = QueryExecutor(tables).execute(query)
        reference = ReferenceQueryExecutor(tables).execute(query)
        assert columnar.columns == reference.columns
        assert columnar.rows == reference.rows

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 8), _owners), min_size=0, max_size=30),
        st.lists(st.tuples(st.integers(0, 8), _sizes), min_size=0, max_size=30),
    )
    def test_two_table_join(self, left_rows, right_rows):
        left = Table(
            TableSchema(
                name="left",
                columns=(
                    ColumnDefinition("id", int, nullable=False),
                    ColumnDefinition("key", int),
                    ColumnDefinition("owner", str),
                ),
            )
        )
        left.create_hash_index("key")
        for index, (key, owner) in enumerate(left_rows):
            left.insert({"id": index, "key": key, "owner": owner})
        right = Table(
            TableSchema(
                name="right",
                columns=(
                    ColumnDefinition("id", int, nullable=False),
                    ColumnDefinition("key", int),
                    ColumnDefinition("size", int),
                ),
            )
        )
        for index, (key, size) in enumerate(right_rows):
            right.insert({"id": index, "key": key, "size": size})
        tables = {"left": left, "right": right}
        query = SelectQuery()
        query.add_table("left", "l")
        query.add_table("right", "r")
        query.add_join("l", "key", "r", "key")
        query.add_output("l", "id", "lid")
        query.add_output("r", "id", "rid")
        query.add_output("r", "size", "size")
        columnar = QueryExecutor(tables).execute(query)
        reference = ReferenceQueryExecutor(tables).execute(query)
        assert columnar.rows == reference.rows

    def test_range_bound_of_another_type_coerces_like_evaluate(self):
        """``size > "5"`` on the sorted-indexed int column compares as strings,
        exactly as ``Comparison.evaluate`` does, instead of raising TypeError."""
        table = _build_table([("alpha", size, "root") for size in range(10)])
        predicate = Comparison(Column("size"), ">", Literal("5"))
        query = SelectQuery()
        query.add_table("items", "t")
        query.add_filter("t", predicate)
        query.add_output("t", "size")
        result = QueryExecutor({"items": table}).execute(query)
        assert result.column("t.size") == [6, 7, 8, 9]
        assert [table.row_at(p)["size"] for p in _reference_positions(table, predicate)] == [
            6, 7, 8, 9
        ]


# -- index-probe joins over compile_select-shaped star joins ------------------

_STAR_ENTITIES = TableSchema(
    name="entities",
    columns=(
        ColumnDefinition("id", int),
        ColumnDefinition("type", str),
        ColumnDefinition("name", str),
    ),
)
_STAR_EVENTS = TableSchema(
    name="events",
    columns=(
        ColumnDefinition("id", int, nullable=False),
        ColumnDefinition("srcid", int),
        ColumnDefinition("dstid", int),
        ColumnDefinition("optype", str),
        ColumnDefinition("starttime", int),
    ),
)

# Entity ids repeat and may be NULL, so join keys are duplicated and NULL.
_entity_ids = st.one_of(st.none(), st.integers(0, 12))
_star_entities = st.lists(
    st.tuples(
        _entity_ids,
        st.sampled_from(["proc", "file"]),
        st.sampled_from(["/bin/tar", "/usr/bin/nginx", "/etc/passwd", "/tmp/x.tar"]),
    ),
    max_size=25,
)
_star_events = st.lists(
    st.tuples(
        _entity_ids,
        _entity_ids,
        st.sampled_from(["read", "write", "execute"]),
        st.integers(0, 50),
    ),
    max_size=40,
)
_event_filters = st.lists(
    st.one_of(
        st.builds(
            lambda op: Comparison(Column("optype"), "=", Literal(op)),
            st.sampled_from(["read", "write", "connect"]),
        ),
        # Windows reach past the data, so the events alias can come out empty.
        st.builds(
            lambda low, width: Between(Column("starttime"), low, low + width),
            st.integers(0, 60),
            st.integers(0, 60),
        ),
    ),
    max_size=2,
)
_entity_filters = st.lists(
    st.one_of(
        st.builds(
            lambda kind: Comparison(Column("type"), "=", Literal(kind)),
            st.sampled_from(["proc", "file"]),
        ),
        st.builds(
            lambda pattern: Like(Column("name"), pattern),
            st.sampled_from(["%tar%", "%nginx%", "/etc/%", "%"]),
        ),
    ),
    max_size=2,
)
# An entity-id constraint lands on the entity alias and on the event table's
# foreign key, as constrain_select attaches it.
_id_constraints = st.one_of(
    st.none(), st.lists(_entity_ids, min_size=1, max_size=4).map(tuple)
)


def _star_tables(entities, events) -> dict[str, Table]:
    entity_table = Table(_STAR_ENTITIES)
    for column in ("id", "type", "name"):
        entity_table.create_hash_index(column)
    for entity_id, kind, name in entities:
        entity_table.insert({"id": entity_id, "type": kind, "name": name})
    event_table = Table(_STAR_EVENTS)
    for column in ("id", "srcid", "dstid", "optype"):
        event_table.create_hash_index(column)
    event_table.create_sorted_index("starttime")
    for index, (srcid, dstid, optype, start) in enumerate(events):
        event_table.insert(
            {"id": index, "srcid": srcid, "dstid": dstid, "optype": optype, "starttime": start}
        )
    return {"entities": entity_table, "events": event_table}


def _star_query(event_filters, subject, obj) -> SelectQuery:
    query = SelectQuery()
    query.add_table("events", "e")
    query.add_table("entities", "s")
    query.add_table("entities", "o")
    query.add_join("e", "srcid", "s", "id")
    query.add_join("e", "dstid", "o", "id")
    for predicate in event_filters:
        query.add_filter("e", predicate)
    for alias, foreign_key, (filters, ids) in (("s", "srcid", subject), ("o", "dstid", obj)):
        for predicate in filters:
            query.add_filter(alias, predicate)
        if ids is not None:
            query.add_filter(alias, InList(Column("id"), ids))
            query.add_filter("e", InList(Column(foreign_key), ids))
    query.add_output("e", "id", "event")
    query.add_output("s", "id", "subject")
    query.add_output("o", "id", "object")
    query.add_output("s", "name", "subject_name")
    return query


class _BranchCountingExecutor(QueryExecutor):
    """Counts which way each alias after the first was resolved."""

    def __init__(self, tables, branches: Counter) -> None:
        super().__init__(tables)
        self._branches = branches

    def _probe_positions(self, relation, path, alias_tables):
        positions = QueryExecutor._probe_positions(relation, path, alias_tables)
        self._branches["probe" if positions is not None else "access path"] += 1
        if not relation.rows:
            self._branches["empty left relation"] += 1
        return positions


class TestIndexProbeJoinAgainstReference:
    def test_star_join_matches_reference_through_both_branches(self):
        """e ⋈ s ⋈ o returns exactly the reference rows, in order, whether an
        alias is probed through its join column or resolved on its own."""
        branches: Counter = Counter()

        @settings(max_examples=250, deadline=None)
        @given(
            _star_entities,
            _star_events,
            _event_filters,
            st.tuples(_entity_filters, _id_constraints),
            st.tuples(_entity_filters, _id_constraints),
        )
        def check(entities, events, event_filters, subject, obj):
            tables = _star_tables(entities, events)
            query = _star_query(event_filters, subject, obj)
            columnar = _BranchCountingExecutor(tables, branches).execute(query)
            reference = ReferenceQueryExecutor(tables).execute(query)
            assert columnar.rows == reference.rows

        check()
        assert branches["probe"] > 0
        assert branches["access path"] > 0
        assert branches["empty left relation"] > 0


def _nested_loop_join(left, right, shared):
    """Reference for ``TBQLExecutionEngine._join``: probe right against left."""
    if not left or not right:
        return []
    joined = []
    for right_binding in right:
        for left_binding in left:
            if all(
                left_binding[name]["id"] == right_binding[name]["id"] for name in shared
            ):
                joined.append({**left_binding, **right_binding})
    return joined


_bindings = st.lists(
    st.fixed_dictionaries(
        {
            "p": st.fixed_dictionaries({"id": st.integers(0, 4)}),
            "f": st.fixed_dictionaries({"id": st.integers(0, 4)}),
        }
    ),
    max_size=15,
)


class TestBindingJoinProperties:
    @settings(max_examples=150)
    @given(_bindings, _bindings, st.sampled_from([(), ("p",), ("f",), ("p", "f")]))
    def test_join_matches_nested_loop(self, left, right, shared):
        joined = TBQLExecutionEngine._join(left, right, shared)
        assert joined == _nested_loop_join(left, right, shared)


class TestRandomizedStress:
    def test_large_random_join_agrees_with_reference(self):
        """A seeded 2k-row join stress comparing row-for-row with the reference."""
        rng = random.Random(92)
        table = _build_table(
            [
                (
                    rng.choice(["alpha", "beta", "gamma", None]),
                    rng.choice([None] + list(range(-10, 11))),
                    rng.choice(["root", "www", "backup"]),
                )
                for _ in range(2000)
            ]
        )
        tables = {"items": table}
        predicate = And(
            [
                Or(
                    [
                        Like(Column("name"), "%a%"),
                        Comparison(Column("size"), ">", Literal(3)),
                    ]
                ),
                InList(Column("owner"), ("root", "www")),
                Not(Comparison(Column("size"), "=", Literal(0))),
            ]
        )
        query = SelectQuery()
        query.add_table("items", "a")
        query.add_table("items", "b")
        query.add_join("a", "size", "b", "size")
        query.add_filter("a", predicate)
        query.add_filter("b", Between(Column("size"), -5, 9))
        query.add_output("a", "id", "aid")
        query.add_output("b", "id", "bid")
        columnar = QueryExecutor(tables).execute(query)
        reference = ReferenceQueryExecutor(tables).execute(query)
        assert len(columnar.rows) > 0
        assert columnar.rows == reference.rows
