"""Vectorized predicate evaluation over column arrays.

The columnar :class:`~repro.storage.relational.table.Table` stores one array
per column; filters therefore operate on *row positions* instead of row dicts.
This module evaluates an :class:`~repro.storage.relational.expression.Expression`
tree against a set of candidate positions using per-column array loops and
set operations:

* conjunctions narrow the position list conjunct by conjunct (preserving the
  per-row short-circuit semantics of ``And.evaluate``);
* disjunctions union per-branch matches, evaluating later branches only on
  positions not yet matched (preserving ``Or``'s short-circuit);
* leaf comparisons compile to a closure once and run a tight loop over one
  column array — no row dicts, no recursive ``evaluate`` calls, and ``LIKE``
  regexes are compiled once per filter instead of once per row.

Every path reproduces the exact semantics of ``Expression.evaluate`` (NULL
propagation, lenient string coercion for mixed-type comparisons, TypeError
fallback to string comparison), which the property tests in
``tests/property/test_property_columnar.py`` check against a per-row
reference evaluator.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

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
    _COMPARATORS,
)

#: One table's column store: column name → value array (parallel lists).
ColumnStore = Mapping[str, Sequence[Any]]


class _PositionRow(Mapping[str, Any]):
    """Zero-copy row view over a column store at one position.

    Used as the fallback when an expression node has no vectorized form
    (e.g. bare columns used as truth values): ``Expression.evaluate`` sees a
    mapping without a row dict ever being materialized.
    """

    __slots__ = ("_columns", "_position")

    def __init__(self, columns: ColumnStore, position: int) -> None:
        self._columns = columns
        self._position = position

    def __getitem__(self, key: str) -> Any:
        return self._columns[key][self._position]

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def rebind(self, position: int) -> "_PositionRow":
        self._position = position
        return self


def _compare_values(left: Any, right: Any, op_fn: Callable[[Any, Any], bool]) -> bool:
    """Exactly ``Comparison.evaluate``'s value semantics for one pair."""
    if left is None or right is None:
        return False
    if isinstance(left, str) != isinstance(right, str):
        left, right = str(left), str(right)
    try:
        return bool(op_fn(left, right))
    except TypeError:
        return bool(op_fn(str(left), str(right)))


def _comparison_matcher(
    op_fn: Callable[[Any, Any], bool], constant: Any, constant_on_left: bool
) -> Callable[[Any], bool]:
    """A per-value matcher for ``column <op> literal`` (or the mirrored form)."""
    if constant is None:
        return lambda value: False
    constant_is_str = isinstance(constant, str)
    constant_str = str(constant)

    if constant_on_left:

        def match(value: Any) -> bool:
            if value is None:
                return False
            if isinstance(value, str) != constant_is_str:
                return bool(op_fn(constant_str, str(value)))
            try:
                return bool(op_fn(constant, value))
            except TypeError:
                return bool(op_fn(constant_str, str(value)))

    else:

        def match(value: Any) -> bool:
            if value is None:
                return False
            if isinstance(value, str) != constant_is_str:
                return bool(op_fn(str(value), constant_str))
            try:
                return bool(op_fn(value, constant))
            except TypeError:
                return bool(op_fn(str(value), constant_str))

    return match


def _filter_by_matcher(
    array: Sequence[Any], positions: Sequence[int], match: Callable[[Any], bool]
) -> list[int]:
    return [position for position in positions if match(array[position])]


def filter_positions(
    columns: ColumnStore,
    row_count: int,
    predicate: Expression,
    positions: Sequence[int] | None = None,
) -> list[int]:
    """Positions (in input order) whose rows satisfy ``predicate``.

    Args:
        columns: The table's column arrays.
        row_count: Number of rows in the table.
        predicate: The filter to evaluate.
        positions: Candidate positions; ``None`` means every row.
    """
    if positions is None:
        if isinstance(predicate, TrueExpression):
            return list(range(row_count))
        positions = range(row_count)
    elif isinstance(predicate, TrueExpression):
        return list(positions)

    # -- boolean combinators ------------------------------------------------
    if isinstance(predicate, And):
        current: Sequence[int] = positions
        for operand in predicate.operands:
            if not current:
                break
            current = filter_positions(columns, row_count, operand, current)
        return list(current)

    if isinstance(predicate, Or):
        matched: set[int] = set()
        remaining: Sequence[int] = positions
        for operand in predicate.operands:
            if not remaining:
                break
            hits = filter_positions(columns, row_count, operand, remaining)
            matched.update(hits)
            if hits:
                remaining = [p for p in remaining if p not in matched]
        return [position for position in positions if position in matched]

    if isinstance(predicate, Not):
        excluded = set(filter_positions(columns, row_count, predicate.operand, positions))
        return [position for position in positions if position not in excluded]

    # -- leaf filters -------------------------------------------------------
    if isinstance(predicate, Comparison):
        op_fn = _COMPARATORS[predicate.operator]
        left, right = predicate.left, predicate.right
        if isinstance(left, Column) and isinstance(right, Literal):
            array = columns.get(left.name)
            if array is not None:
                match = _comparison_matcher(op_fn, right.value, constant_on_left=False)
                return _filter_by_matcher(array, positions, match)
        elif isinstance(left, Literal) and isinstance(right, Column):
            array = columns.get(right.name)
            if array is not None:
                match = _comparison_matcher(op_fn, left.value, constant_on_left=True)
                return _filter_by_matcher(array, positions, match)
        elif isinstance(left, Column) and isinstance(right, Column):
            left_array = columns.get(left.name)
            right_array = columns.get(right.name)
            if left_array is not None and right_array is not None:
                return [
                    position
                    for position in positions
                    if _compare_values(left_array[position], right_array[position], op_fn)
                ]

    elif isinstance(predicate, Like) and isinstance(predicate.operand, Column):
        array = columns.get(predicate.operand.name)
        if array is not None:
            regex = predicate.regex
            negate = predicate.negate
            matched_positions: list[int] = []
            for position in positions:
                value = array[position]
                if value is None:
                    hit = False
                else:
                    hit = regex.match(str(value)) is not None
                    if negate:
                        hit = not hit
                if hit:
                    matched_positions.append(position)
            return matched_positions

    elif isinstance(predicate, InList) and isinstance(predicate.operand, Column):
        array = columns.get(predicate.operand.name)
        if array is not None:
            values = predicate.values
            try:
                value_set: frozenset[Any] | None = frozenset(values)
            except TypeError:
                value_set = None
            negate = predicate.negate

            def contains(value: Any) -> bool:
                if value_set is not None:
                    try:
                        return value in value_set
                    except TypeError:
                        return value in values
                return value in values

            if negate:
                return [p for p in positions if not contains(array[p])]
            return [p for p in positions if contains(array[p])]

    elif isinstance(predicate, Between) and isinstance(predicate.operand, Column):
        array = columns.get(predicate.operand.name)
        if array is not None:
            low, high = predicate.low, predicate.high
            matched_positions = []
            for position in positions:
                value = array[position]
                if value is not None and low <= value <= high:
                    matched_positions.append(position)
            return matched_positions

    # -- generic fallback ---------------------------------------------------
    # Anything without a vectorized form (expressions referencing columns the
    # table does not have, bare column truth-values, exotic operand shapes)
    # evaluates per row through a zero-copy position view.
    view = _PositionRow(columns, 0)
    return [
        position for position in positions if predicate.evaluate(view.rebind(position))
    ]


__all__ = ["ColumnStore", "filter_positions"]
