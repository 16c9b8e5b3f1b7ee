"""SQL rendering for relational queries: the one SQL renderer.

ThreatRaptor compiles each TBQL event pattern "into a SQL data query which
joins entity tables with event table".  This module renders the logical
:class:`~repro.storage.relational.query.SelectQuery` objects produced by that
compilation, walking the expression tree structurally (per-alias column
qualification happens on :class:`Column` nodes), in two modes:

* **parameterized** — executable SQL: literals become ``?`` placeholders bound
  server-side.  The sqlite3 oracle under ``tests/oracles/`` runs this text.
* **inline** — readable text with literals interpolated and no null guards,
  for explanation and the query-conciseness experiment (EXP-SYNTH), which
  compares a synthesized TBQL query against the SQL the engine would run.

The parameterized mode is engineered to agree row-for-row with
``Expression.evaluate``:

* Python evaluation is two-valued (``None`` operands make predicates
  **false**, never unknown), so every rendered predicate carries explicit
  ``IS NOT NULL`` guards and never yields SQL ``NULL`` — which keeps ``NOT``
  and nested disjunctions faithful.
* ``Comparison.evaluate`` coerces mixed string/non-string operands to
  strings; the rendering mirrors that with a ``typeof`` dispatch, and wraps
  column references in unary ``+`` so sqlite's column-affinity conversions
  cannot reintroduce numeric coercion behind our back.
* ``LIKE`` patterns are re-emitted in canonical backslash-escaped form with
  an explicit ``ESCAPE`` clause, so literal ``%``/``_`` match literally on
  both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError
from repro.storage.relational.expression import (
    LIKE_ESCAPE_CHAR,
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
    canonical_like_pattern,
)
from repro.storage.relational.query import SelectQuery


@dataclass(frozen=True)
class RenderedSQL:
    """SQL text plus the positional parameters it binds."""

    text: str
    parameters: tuple[Any, ...]


def _inline_literal(value: Any) -> str:
    """A constant as inline SQL text (single quotes doubled)."""
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if value is None:
        return "NULL"
    return str(value)


class ExpressionRenderer:
    """Renders :class:`Expression` trees to SQL, collecting bind parameters.

    Args:
        parameterized: Emit ``?`` placeholders with server-side binding and
            evaluate-faithful null/coercion semantics when True; inline
            text (literals interpolated, no null guards) when False.
    """

    def __init__(self, parameterized: bool = True) -> None:
        self.parameterized = parameterized
        self.parameters: list[Any] = []

    # -- public API --------------------------------------------------------

    def predicate(self, expression: Expression, alias: str | None = None) -> str:
        """Render a boolean predicate, qualifying bare columns with ``alias``."""
        if isinstance(expression, Comparison):
            return self._comparison(expression, alias)
        if isinstance(expression, Like):
            return self._like(expression, alias)
        if isinstance(expression, InList):
            return self._in_list(expression, alias)
        if isinstance(expression, Between):
            return self._between(expression, alias)
        if isinstance(expression, And):
            return self._connective(expression.operands, "AND", alias)
        if isinstance(expression, Or):
            return self._connective(expression.operands, "OR", alias)
        if isinstance(expression, Not):
            return f"NOT ({self.predicate(expression.operand, alias)})"
        if isinstance(expression, TrueExpression):
            return "TRUE" if not self.parameterized else "1=1"
        if isinstance(expression, (Column, Literal)) and not self.parameterized:
            # Inline text tolerates odd trees.
            text, _ = self._operand(expression, alias)
            return text
        raise QueryError(
            f"cannot render {type(expression).__name__} as a boolean predicate"
        )

    # -- operands ----------------------------------------------------------

    def _operand(
        self, expression: Expression, alias: str | None
    ) -> tuple[str, tuple[Any, ...]]:
        """A value-position fragment: (sql text, parameters it binds)."""
        if isinstance(expression, Column):
            return self._qualified(expression, alias), ()
        if isinstance(expression, Literal):
            if self.parameterized:
                return "?", (expression.value,)
            return _inline_literal(expression.value), ()
        raise QueryError(
            f"unsupported operand expression {type(expression).__name__}"
        )

    @staticmethod
    def _qualified(column: Column, alias: str | None) -> str:
        # Cross-filter columns arrive pre-qualified ("e1.starttime"); leave
        # them alone.  Bare names get the current alias prefix.
        if alias is None or "." in column.name:
            return column.name
        return f"{alias}.{column.name}"

    def _emit(self, expression: Expression, alias: str | None) -> str:
        """Emit one occurrence of an operand, appending its parameters."""
        text, params = self._operand(expression, alias)
        self.parameters.extend(params)
        return text

    def _emit_stripped(self, expression: Expression, alias: str | None) -> str:
        """Emit an operand with sqlite column affinity stripped (unary ``+``).

        Without this, comparing an INTEGER-affinity column against a text
        parameter silently converts the parameter to a number — the exact
        coercion divergence the renderer exists to pin down.
        """
        text = self._emit(expression, alias)
        return f"+{text}" if isinstance(expression, Column) else text

    # -- node renderers ----------------------------------------------------

    def _comparison(self, comparison: Comparison, alias: str | None) -> str:
        left, right = comparison.left, comparison.right
        if not self.parameterized:
            left_text, _ = self._operand(left, alias)
            right_text, _ = self._operand(right, alias)
            return f"{left_text} {comparison.operator} {right_text}"
        if isinstance(left, Literal) and isinstance(right, Literal):
            # Constant comparison: fold it through the Python semantics.
            return "1=1" if comparison.evaluate({}) else "0=1"
        if (isinstance(left, Literal) and left.value is None) or (
            isinstance(right, Literal) and right.value is None
        ):
            return "0=1"
        guards = [
            f"{self._emit(side, alias)} IS NOT NULL"
            for side in (left, right)
            if not isinstance(side, Literal)
        ]
        coerced = self._coercing_comparison(left, comparison.operator, right, alias)
        return "(" + " AND ".join(guards + [coerced]) + ")"

    def _coercing_comparison(
        self, left: Expression, operator: str, right: Expression, alias: str | None
    ) -> str:
        """Compare two non-null operands the way ``Comparison.evaluate`` does.

        Python coerces mixed string/non-string operands to strings; in SQL
        that branch is decided at runtime with ``typeof`` (statically when an
        operand is a literal of known type).
        """

        def occurrence(side: Expression) -> str:
            return self._emit_stripped(side, alias)

        def direct() -> str:
            return f"{occurrence(left)} {operator} {occurrence(right)}"

        def cast() -> str:
            return (
                f"CAST({occurrence(left)} AS TEXT) {operator} "
                f"CAST({occurrence(right)} AS TEXT)"
            )

        left_is_text = (
            isinstance(left.value, str) if isinstance(left, Literal) else None
        )
        right_is_text = (
            isinstance(right.value, str) if isinstance(right, Literal) else None
        )
        if left_is_text is None and right_is_text is None:
            test = (
                f"(typeof({occurrence(left)}) = 'text') = "
                f"(typeof({occurrence(right)}) = 'text')"
            )
            return f"CASE WHEN {test} THEN {direct()} ELSE {cast()} END"
        if left_is_text is None:
            dynamic_side, static_is_text = left, bool(right_is_text)
        else:
            dynamic_side, static_is_text = right, bool(left_is_text)
        test = f"typeof({occurrence(dynamic_side)}) = 'text'"
        if static_is_text:
            then_branch, else_branch = direct(), cast()
        else:
            then_branch, else_branch = cast(), direct()
        return f"CASE WHEN {test} THEN {then_branch} ELSE {else_branch} END"

    def _like(self, like: Like, alias: str | None) -> str:
        keyword = "NOT LIKE" if like.negate else "LIKE"
        canonical = canonical_like_pattern(like.pattern)
        if not self.parameterized:
            operand_text, _ = self._operand(like.operand, alias)
            escaped = canonical.replace("'", "''")
            rendered = f"{operand_text} {keyword} '{escaped}'"
            if LIKE_ESCAPE_CHAR in canonical:
                rendered += f" ESCAPE '{LIKE_ESCAPE_CHAR}'"
            return rendered
        guard = f"{self._emit(like.operand, alias)} IS NOT NULL"
        operand = self._emit_stripped(like.operand, alias)
        self.parameters.append(canonical)
        return f"({guard} AND {operand} {keyword} ? ESCAPE '{LIKE_ESCAPE_CHAR}')"

    def _in_list(self, membership: InList, alias: str | None) -> str:
        if not self.parameterized:
            if not membership.values:
                return "1=1" if membership.negate else "1=0"
            keyword = "NOT IN" if membership.negate else "IN"
            operand_text, _ = self._operand(membership.operand, alias)
            rendered = ", ".join(_inline_literal(v) for v in membership.values)
            return f"{operand_text} {keyword} ({rendered})"
        non_null = tuple(v for v in membership.values if v is not None)
        has_null = len(non_null) != len(membership.values)
        terms: list[str] = []
        if non_null:
            guard = f"{self._emit(membership.operand, alias)} IS NOT NULL"
            operand = self._emit_stripped(membership.operand, alias)
            placeholders = ", ".join("?" for _ in non_null)
            self.parameters.extend(non_null)
            terms.append(f"({guard} AND {operand} IN ({placeholders}))")
        if has_null:
            terms.append(f"{self._emit(membership.operand, alias)} IS NULL")
        if not terms:
            containment = "0=1"
        elif len(terms) == 1:
            containment = terms[0]
        else:
            containment = "(" + " OR ".join(terms) + ")"
        return f"NOT ({containment})" if membership.negate else containment

    def _between(self, between: Between, alias: str | None) -> str:
        if not self.parameterized:
            operand_text, _ = self._operand(between.operand, alias)
            return (
                f"{operand_text} BETWEEN {_inline_literal(between.low)} "
                f"AND {_inline_literal(between.high)}"
            )
        guard = f"{self._emit(between.operand, alias)} IS NOT NULL"
        operand = self._emit_stripped(between.operand, alias)
        self.parameters.extend((between.low, between.high))
        return f"({guard} AND {operand} BETWEEN ? AND ?)"

    def _connective(
        self, operands: tuple[Expression, ...], keyword: str, alias: str | None
    ) -> str:
        if not operands:
            if self.parameterized:
                return "1=1" if keyword == "AND" else "0=1"
            return "TRUE" if keyword == "AND" else "FALSE"
        rendered = f" {keyword} ".join(
            f"({self.predicate(operand, alias)})" for operand in operands
        )
        return rendered if not self.parameterized else f"({rendered})"


def render_expression(
    expression: Expression, alias: str | None = None, parameterized: bool = True
) -> RenderedSQL:
    """Render one predicate expression on its own (tests, ad-hoc tooling)."""
    renderer = ExpressionRenderer(parameterized)
    text = renderer.predicate(expression, alias)
    return RenderedSQL(text=text, parameters=tuple(renderer.parameters))


def render_select_query(
    query: SelectQuery, parameterized: bool = True, pretty: bool = False
) -> RenderedSQL:
    """Render a :class:`SelectQuery` as a SQL SELECT statement.

    Args:
        query: The logical query to render.
        parameterized: Executable mode with ``?`` placeholders when True;
            inline text when False.
        pretty: One clause per line when True; single line otherwise.
    """
    renderer = ExpressionRenderer(parameterized)
    separator = "\n" if pretty else " "
    indent = "  " if pretty else ""

    if query.projection:
        if parameterized:
            # Quote output names: they carry dots ("subject.id") which sqlite
            # would otherwise parse as table qualifiers.
            select_list = ", ".join(
                f'{output.alias}.{output.column} AS "{output.output_name}"'
                for output in query.projection
            )
        else:
            select_list = ", ".join(
                f"{output.alias}.{output.column}"
                + (f" AS {output.name}" if output.name else "")
                for output in query.projection
            )
    else:
        select_list = "*"
    select_clause = "SELECT " + ("DISTINCT " if query.distinct else "") + select_list

    from_clause = "FROM " + ", ".join(
        f"{ref.table} {ref.alias}" for ref in query.tables
    )

    where_terms: list[str] = []
    for alias in query.aliases():
        alias_filter = query.filters.get(alias)
        if alias_filter is None:
            continue
        rendered = renderer.predicate(alias_filter, alias)
        if rendered not in ("TRUE", "1=1"):
            where_terms.append(rendered)
    where_terms.extend(
        f"{join.left_alias}.{join.left_column} = "
        f"{join.right_alias}.{join.right_column}"
        for join in query.joins
    )
    where_terms.extend(
        renderer.predicate(predicate, None) for predicate in query.cross_filters
    )

    clauses = [select_clause, from_clause]
    if where_terms:
        glue = f"{separator}{indent}AND "
        clauses.append("WHERE " + glue.join(where_terms))
    if query.order_by:
        clauses.append(
            "ORDER BY "
            + ", ".join(
                f"{term.alias}.{term.column} {'DESC' if term.descending else 'ASC'}"
                for term in query.order_by
            )
        )
    if query.limit is not None:
        clauses.append(f"LIMIT {int(query.limit)}")
    return RenderedSQL(
        text=separator.join(clauses) + ";",
        parameters=tuple(renderer.parameters),
    )
