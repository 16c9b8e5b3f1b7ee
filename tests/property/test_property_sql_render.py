"""Property tests for the parameterized SQL renderer (hypothesis).

Every :class:`Expression` node combination is rendered to parameterized SQL,
executed against an in-memory sqlite table, and compared row-for-row with the
Python ``evaluate()`` semantics.  This is the oracle that pins down the
subtle divergences the sql backend had to fix: empty ``IN ()`` lists,
inexpressible literal ``%``/``_`` in LIKE patterns, SQL three-valued NULL
logic vs. Python's two-valued evaluation, and sqlite's column-affinity
coercion vs. Python's lenient string casts.
"""

from __future__ import annotations

import sqlite3

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
    TrueExpression,
)
from repro.storage.sql.render import render_expression

INT_COLUMNS = ("pid", "port")
TEXT_COLUMNS = ("name", "host")
COLUMNS = INT_COLUMNS + TEXT_COLUMNS

# Small alphabets keep collision (and therefore match) probability high.  The
# newline pins LIKE's wildcards matching it and the match ending at the end.
_TEXT_ALPHABET = "ab5%_\\\n"
_PATTERN_ALPHABET = "ab5%_\\\n"

ints = st.integers(min_value=-5, max_value=10)
texts = st.text(alphabet=_TEXT_ALPHABET, max_size=6)
int_values = st.one_of(st.none(), ints)
text_values = st.one_of(st.none(), texts)

rows = st.lists(
    st.fixed_dictionaries(
        {
            "pid": int_values,
            "port": int_values,
            "name": text_values,
            "host": text_values,
        }
    ),
    max_size=12,
)

int_columns = st.sampled_from(INT_COLUMNS).map(Column)
text_columns = st.sampled_from(TEXT_COLUMNS).map(Column)
any_columns = st.sampled_from(COLUMNS).map(Column)
operators = st.sampled_from(("=", "!=", "<", "<=", ">", ">="))

# Literals deliberately include type-mismatched values (a digit string against
# an int column, an int against a text column): Comparison.evaluate coerces
# mixed operands to strings and the renderer must reproduce exactly that.
literals = st.one_of(st.none(), ints, texts).map(Literal)

comparisons = st.one_of(
    st.builds(Comparison, any_columns, operators, literals),
    st.builds(
        lambda left, op, right: Comparison(left, op, right),
        literals,
        operators,
        any_columns,
    ),
    st.builds(Comparison, any_columns, operators, any_columns),
)

likes = st.builds(
    Like,
    any_columns,
    st.text(alphabet=_PATTERN_ALPHABET, max_size=6),
    st.booleans(),
)

in_lists = st.builds(
    InList,
    any_columns,
    st.lists(st.one_of(st.none(), ints, texts), max_size=4).map(tuple),
    st.booleans(),
)

betweens = st.one_of(
    st.builds(Between, int_columns, ints, ints),
    st.builds(Between, text_columns, texts, texts),
)

leaves = st.one_of(
    comparisons, likes, in_lists, betweens, st.just(TrueExpression())
)

predicates = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(And),
        st.lists(children, max_size=3).map(Or),
        children.map(Not),
    ),
    max_leaves=8,
)


def _sqlite_matches(
    expression: Expression, table_rows: list[dict[str, object]]
) -> set[int]:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute(
            "CREATE TABLE t (pid INTEGER, port INTEGER, name TEXT, host TEXT)"
        )
        connection.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [tuple(row[column] for column in COLUMNS) for row in table_rows],
        )
        rendered = render_expression(expression, alias=None, parameterized=True)
        cursor = connection.execute(
            f"SELECT rowid FROM t WHERE {rendered.text}", rendered.parameters
        )
        return {row[0] for row in cursor.fetchall()}
    finally:
        connection.close()


def _assert_sqlite_agrees(expression: Expression, table_rows: list[dict[str, object]]) -> None:
    expected = {
        index + 1  # sqlite rowids are 1-based and insertion-ordered
        for index, row in enumerate(table_rows)
        if expression.evaluate(row)
    }
    assert _sqlite_matches(expression, table_rows) == expected


class TestRendererAgreesWithEvaluate:
    @settings(max_examples=250, deadline=None)
    @given(expression=predicates, table_rows=rows)
    def test_rendered_sql_matches_evaluate_row_for_row(
        self, expression: Expression, table_rows: list[dict[str, object]]
    ) -> None:
        _assert_sqlite_agrees(expression, table_rows)

    @settings(max_examples=300, deadline=None)
    @given(expression=likes, table_rows=rows)
    def test_like_matches_evaluate_row_for_row(
        self, expression: Expression, table_rows: list[dict[str, object]]
    ) -> None:
        """A lone ``LIKE``: its escapes, wildcards and newlines meet sqlite's
        far more often than inside a random expression tree."""
        _assert_sqlite_agrees(expression, table_rows)

    @settings(max_examples=100, deadline=None)
    @given(expression=predicates, table_rows=rows)
    def test_alias_qualified_rendering_matches_too(
        self, expression: Expression, table_rows: list[dict[str, object]]
    ) -> None:
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute(
                "CREATE TABLE t (pid INTEGER, port INTEGER, name TEXT, host TEXT)"
            )
            connection.executemany(
                "INSERT INTO t VALUES (?, ?, ?, ?)",
                [tuple(row[column] for column in COLUMNS) for row in table_rows],
            )
            rendered = render_expression(expression, alias="x", parameterized=True)
            cursor = connection.execute(
                f"SELECT x.rowid FROM t x WHERE {rendered.text}",
                rendered.parameters,
            )
            matched = {row[0] for row in cursor.fetchall()}
        finally:
            connection.close()
        expected = {
            index + 1
            for index, row in enumerate(table_rows)
            if expression.evaluate(row)
        }
        assert matched == expected
