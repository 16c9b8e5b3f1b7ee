"""Unit tests for relational filter expressions."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
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
    TrueExpression,
    conjoin,
    equality_lookups,
    escape_like,
    like_has_wildcards,
    range_lookups,
    unescape_like,
)
from repro.storage.sql.render import render_expression


def _inline_sql(expression) -> str:
    return render_expression(expression, parameterized=False).text


ROW = {"name": "/etc/passwd", "size": 120, "optype": "read", "starttime": 500}


class TestBasicExpressions:
    def test_column_lookup(self):
        assert Column("name").evaluate(ROW) == "/etc/passwd"

    def test_column_missing_raises(self):
        with pytest.raises(QueryError):
            Column("missing").evaluate(ROW)

    def test_literal(self):
        assert Literal(42).evaluate(ROW) == 42

    def test_comparison_operators(self):
        assert Comparison(Column("size"), "=", Literal(120)).evaluate(ROW)
        assert Comparison(Column("size"), "!=", Literal(121)).evaluate(ROW)
        assert Comparison(Column("size"), "<", Literal(121)).evaluate(ROW)
        assert Comparison(Column("size"), ">=", Literal(120)).evaluate(ROW)
        assert not Comparison(Column("size"), ">", Literal(120)).evaluate(ROW)

    def test_comparison_with_none_is_false(self):
        assert not Comparison(Column("name"), "=", Literal(None)).evaluate(ROW)

    def test_comparison_mixed_types_falls_back_to_string(self):
        assert Comparison(Column("size"), "=", Literal("120")).evaluate(ROW)

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison(Column("size"), "~~", Literal(1))


class TestLike:
    def test_percent_matches_any_run(self):
        assert Like(Column("name"), "%passwd%").evaluate(ROW)
        assert Like(Column("name"), "/etc/%").evaluate(ROW)
        assert not Like(Column("name"), "%shadow%").evaluate(ROW)

    def test_exact_pattern_without_wildcards(self):
        assert Like(Column("name"), "/etc/passwd").evaluate(ROW)
        assert not Like(Column("name"), "/etc/pass").evaluate(ROW)

    def test_underscore_matches_single_character(self):
        assert Like(Column("optype"), "rea_").evaluate(ROW)
        assert not Like(Column("optype"), "re_").evaluate(ROW)

    def test_case_insensitive(self):
        assert Like(Column("name"), "%PASSWD%").evaluate(ROW)

    def test_negated(self):
        assert Like(Column("name"), "%shadow%", negate=True).evaluate(ROW)

    def test_regex_metacharacters_are_literal(self):
        row = {"name": "file(1).txt"}
        assert Like(Column("name"), "file(1).txt").evaluate(row)
        assert not Like(Column("name"), "file(2).txt").evaluate(row)

    def test_inline_sql(self):
        assert _inline_sql(Like(Column("name"), "%x%")) == "name LIKE '%x%'"


class TestLikeEscaping:
    """Literal ``%``/``_`` in patterns (e.g. URL-encoded IOC paths)."""

    def test_escape_like_round_trips(self):
        assert escape_like("/tmp/a%20b") == r"/tmp/a\%20b"
        assert escape_like("a_b") == r"a\_b"
        assert escape_like("C:\\x") == "C:\\\\x"
        assert unescape_like(escape_like("/tmp/a%_\\b")) == "/tmp/a%_\\b"

    def test_escaped_percent_matches_literally(self):
        pattern = "%" + escape_like("a%20b") + "%"
        assert Like(Column("name"), pattern).evaluate({"name": "/tmp/a%20b.tar"})
        # Pre-fix the escaped ``\%`` degraded to a ``.*`` wildcard, so this
        # row matched too.
        assert not Like(Column("name"), pattern).evaluate({"name": "/tmp/aX20b.tar"})

    def test_escaped_underscore_matches_literally(self):
        assert Like(Column("name"), escape_like("a_b")).evaluate({"name": "a_b"})
        assert not Like(Column("name"), escape_like("a_b")).evaluate({"name": "axb"})

    def test_lone_backslash_stays_literal(self):
        assert Like(Column("name"), "C:\\temp%").evaluate({"name": "C:\\temp\\f"})

    def test_wildcard_detection_honors_escapes(self):
        assert like_has_wildcards("%x%")
        assert not like_has_wildcards(escape_like("a%b"))
        assert unescape_like(escape_like("a%b")) == "a%b"

    def test_inline_sql_emits_escape_clause_only_when_needed(self):
        rendered = _inline_sql(Like(Column("name"), escape_like("a%b")))
        assert rendered == "name LIKE 'a\\%b' ESCAPE '\\'"
        assert "ESCAPE" not in _inline_sql(Like(Column("name"), "%x%"))

    def test_equality_lookup_unescapes(self):
        lookups = equality_lookups(Like(Column("name"), escape_like("a%b")))
        assert lookups == {"name": "a%b"}


class TestCombinators:
    def test_and_or_not(self):
        a = Comparison(Column("size"), ">", Literal(100))
        b = Like(Column("name"), "%passwd%")
        assert And([a, b]).evaluate(ROW)
        assert Or([Not(a), b]).evaluate(ROW)
        assert not And([a, Not(b)]).evaluate(ROW)

    def test_operator_overloads(self):
        a = Comparison(Column("size"), ">", Literal(100))
        b = Like(Column("name"), "%passwd%")
        assert (a & b).evaluate(ROW)
        assert (a | ~b).evaluate(ROW)

    def test_flattened(self):
        a = Comparison(Column("size"), ">", Literal(100))
        b = Like(Column("name"), "%passwd%")
        c = Comparison(Column("optype"), "=", Literal("read"))
        nested = And([And([a, b]), c])
        assert len(nested.flattened()) == 3

    def test_columns_collected(self):
        a = Comparison(Column("size"), ">", Literal(100))
        b = Like(Column("name"), "%passwd%")
        assert And([a, b]).columns() == {"size", "name"}

    def test_conjoin_simplifies(self):
        assert isinstance(conjoin([]), TrueExpression)
        single = Comparison(Column("size"), ">", Literal(1))
        assert conjoin([single]) is single
        assert isinstance(conjoin([single, TrueExpression()]), Comparison)


class TestBetweenAndInList:
    def test_between_inclusive(self):
        assert Between(Column("starttime"), 500, 600).evaluate(ROW)
        assert Between(Column("starttime"), 400, 500).evaluate(ROW)
        assert not Between(Column("starttime"), 501, 600).evaluate(ROW)

    def test_in_list(self):
        assert InList(Column("optype"), ("read", "write")).evaluate(ROW)
        assert not InList(Column("optype"), ("write",)).evaluate(ROW)
        assert InList(Column("optype"), ("write",), negate=True).evaluate(ROW)

    def test_inline_sql_rendering(self):
        assert "BETWEEN 1 AND 2" in _inline_sql(Between(Column("starttime"), 1, 2))
        assert "IN ('read', 'write')" in _inline_sql(InList(Column("optype"), ("read", "write")))

    def test_empty_in_list_renders_valid_sql(self):
        # ``IN ()`` is a sqlite syntax error; the empty membership test must
        # render as a constant predicate instead.
        assert _inline_sql(InList(Column("optype"), ())) == "1=0"
        assert _inline_sql(InList(Column("optype"), (), negate=True)) == "1=1"

    def test_empty_in_list_evaluation_matches_rendering(self):
        assert not InList(Column("optype"), ()).evaluate(ROW)
        assert InList(Column("optype"), (), negate=True).evaluate(ROW)


class TestIndexHints:
    def test_equality_lookups_from_conjunction(self):
        expression = And(
            [
                Comparison(Column("optype"), "=", Literal("read")),
                Like(Column("name"), "/etc/passwd"),
                Comparison(Column("size"), ">", Literal(10)),
            ]
        )
        lookups = equality_lookups(expression)
        assert lookups == {"optype": "read", "name": "/etc/passwd"}

    def test_equality_lookup_reversed_operands(self):
        expression = Comparison(Literal("read"), "=", Column("optype"))
        assert equality_lookups(expression) == {"optype": "read"}

    def test_like_with_wildcards_not_indexable(self):
        assert equality_lookups(Like(Column("name"), "%passwd%")) == {}

    def test_single_value_inlist_is_indexable(self):
        assert equality_lookups(InList(Column("optype"), ("read",))) == {"optype": "read"}

    def test_range_lookups(self):
        expression = And(
            [
                Comparison(Column("starttime"), ">=", Literal(100)),
                Comparison(Column("starttime"), "<", Literal(900)),
            ]
        )
        assert range_lookups(expression) == {"starttime": (100, 900)}

    def test_range_lookups_from_between(self):
        assert range_lookups(Between(Column("starttime"), 5, 10)) == {"starttime": (5, 10)}

    def test_range_bounds_tightened(self):
        expression = And(
            [
                Between(Column("starttime"), 0, 1000),
                Comparison(Column("starttime"), ">=", Literal(100)),
            ]
        )
        low, high = range_lookups(expression)["starttime"]
        assert (low, high) == (100, 1000)
