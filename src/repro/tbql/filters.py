"""Bridging TBQL attribute filters to backend predicate representations.

TBQL entity filters are small boolean expressions over entity attributes with
SQL-LIKE wildcard semantics for string literals that contain ``%`` or ``_``.
Both backends take them as relational
:class:`~repro.storage.relational.expression.Expression` objects — the
relational engine over rows, the graph planner over a node's property dict —
so the conversion lives here once and the semantics stay identical.
"""

from __future__ import annotations

from typing import Any

from repro.auditing.entities import DEFAULT_ATTRIBUTE, EntityType
from repro.storage.relational.database import ENTITY_SCHEMA, EVENT_SCHEMA
from repro.storage.relational.expression import (
    Column,
    Comparison,
    Expression,
    Like,
    Literal,
    TrueExpression,
    conjoin,
)
from repro.storage.relational.expression import And as RelationalAnd
from repro.storage.relational.expression import Or as RelationalOr
from repro.tbql.ast import AttributeComparison, FilterExpression, FilterOperator


def _is_wildcard(value: Any) -> bool:
    return isinstance(value, str) and ("%" in value or "_" in value)


#: Columns declared with an ``int`` dtype in the audit schema.  String
#: literals compared against these are coerced to typed (integer) literals so
#: the comparison is numeric everywhere: the in-memory engines would
#: otherwise fall back to lexicographic string comparison while sqlite
#: applies INTEGER column affinity — two different answers for ``pid > "9"``.
_NUMERIC_COLUMNS = frozenset(
    column.name
    for schema in (ENTITY_SCHEMA, EVENT_SCHEMA)
    for column in schema.columns
    if column.dtype is int
)


def _typed_literal(attribute: str, value: Any) -> Any:
    if attribute in _NUMERIC_COLUMNS and isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return value
    return value


def comparison_to_expression(
    comparison: AttributeComparison, entity_type: EntityType
) -> Expression:
    """Convert one TBQL attribute comparison to a relational expression."""
    attribute = comparison.attribute or DEFAULT_ATTRIBUTE[entity_type]
    column = Column(attribute)
    value = comparison.value
    if comparison.operator is FilterOperator.LIKE or _is_wildcard(value):
        negate = comparison.operator is FilterOperator.NEQ
        return Like(operand=column, pattern=str(value), negate=negate)
    operator = comparison.operator.value
    return Comparison(
        left=column, operator=operator, right=Literal(_typed_literal(attribute, value))
    )


def filter_to_expression(
    expression: FilterExpression | None, entity_type: EntityType
) -> Expression:
    """Convert a TBQL filter expression tree to a relational expression.

    ``None`` (no filter) converts to the always-true expression.
    """
    if expression is None:
        return TrueExpression()
    if expression.comparison is not None:
        return comparison_to_expression(expression.comparison, entity_type)
    children = [filter_to_expression(child, entity_type) for child in expression.children]
    if expression.combinator == "or":
        return RelationalOr(children)
    return conjoin(children) if len(children) != 1 else children[0]


def constraint_count(expression: FilterExpression | None) -> int:
    """Number of leaf comparisons in a filter (used by the pruning score)."""
    if expression is None:
        return 0
    return len(expression.comparisons())


__all__ = [
    "comparison_to_expression",
    "constraint_count",
    "filter_to_expression",
]
