"""Row-dict reference executor: the pre-columnar execution strategy.

This module preserves the engine's original per-row-dict execution path —
qualified row dicts per alias, per-row ``Expression.evaluate`` residual
filtering, dict-merging hash joins — as it ran before the columnar rework,
except that its hash join emits the engine's one documented row order (left
rows in order, then right rows in storage order) and it resolves every alias
through its own access path, never by an index probe.  It is a test oracle:
the property tests and the data-query differential test compare the columnar
:class:`~repro.storage.relational.executor.QueryExecutor` row-for-row against
this naive evaluator.  Row dicts are materialized once per table and cached
(keyed by row count so appends invalidate).
"""

from __future__ import annotations

from typing import Any

from repro.storage.relational.executor import AccessPath, ExecutionPlan, QueryExecutor
from repro.storage.relational.expression import TrueExpression
from repro.storage.relational.query import QueryResult, SelectQuery
from repro.storage.relational.table import Row, Table


class ReferenceQueryExecutor:
    """Plans like :class:`QueryExecutor`, executes with per-row dicts."""

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables
        self._planner = QueryExecutor(tables)
        self._row_cache: dict[str, tuple[int, list[Row]]] = {}

    # -- row materialization -------------------------------------------------

    def _rows(self, table: Table) -> list[Row]:
        """All rows of ``table`` as dicts (cached until the table grows)."""
        cached = self._row_cache.get(table.name)
        if cached is not None and cached[0] == len(table):
            return cached[1]
        rows = list(table.rows_at(table.all_positions()))
        self._row_cache[table.name] = (len(table), rows)
        return rows

    # -- execution -----------------------------------------------------------

    def plan(self, query: SelectQuery) -> ExecutionPlan:
        return self._planner.plan(query)

    def execute(self, query: SelectQuery) -> QueryResult:
        """Execute ``query`` with the historical row-dict strategy."""
        plan = self.plan(query)
        joined = self._execute_joins(query, plan)

        for predicate in query.cross_filters:
            joined = [row for row in joined if predicate.evaluate(row)]

        if query.projection:
            columns = tuple(output.output_name for output in query.projection)
            projected = [
                tuple(row.get(f"{output.alias}.{output.column}") for output in query.projection)
                for row in joined
            ]
        else:
            columns = self._all_columns(query)
            projected = [tuple(row.get(column) for column in columns) for row in joined]

        if query.distinct:
            seen: set[tuple[Any, ...]] = set()
            unique: list[tuple[Any, ...]] = []
            for row in projected:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            projected = unique

        if query.order_by:
            positions = {column: index for index, column in enumerate(columns)}

            def sort_key(row: tuple[Any, ...]) -> tuple[Any, ...]:
                key: list[Any] = []
                for term in query.order_by:
                    qualified = f"{term.alias}.{term.column}"
                    index = positions.get(qualified)
                    key.append(row[index] if index is not None else None)
                return tuple(key)

            reverse = bool(query.order_by and query.order_by[0].descending)
            projected.sort(key=sort_key, reverse=reverse)

        if query.limit is not None:
            projected = projected[: query.limit]

        return QueryResult(columns=columns, rows=tuple(projected))

    # -- internals -----------------------------------------------------------

    def _all_columns(self, query: SelectQuery) -> tuple[str, ...]:
        columns: list[str] = []
        for ref in query.tables:
            table = self._tables[ref.table]
            columns.extend(f"{ref.alias}.{name}" for name in table.schema.column_names())
        return tuple(columns)

    def _rows_for_alias(self, query: SelectQuery, path: AccessPath) -> list[dict[str, Any]]:
        predicate = query.filter_for_alias(path.alias)
        residual = None if isinstance(predicate, TrueExpression) else predicate
        rows = self._rows(path.table)
        if path.kind == "index-eq":
            candidates = [rows[p] for p in path.table.positions_equal(path.column, path.value)]
        elif path.kind == "index-in":
            candidates = [rows[p] for p in path.table.positions_in(path.column, path.values or ())]
        elif path.kind == "index-range":
            candidates = [
                rows[p]
                for p in path.table.positions_range(path.column, low=path.low, high=path.high)
            ]
        else:
            candidates = rows
        prefix = f"{path.alias}."
        qualified: list[dict[str, Any]] = []
        for row in candidates:
            if residual is None or residual.evaluate(row):
                qualified.append({prefix + key: value for key, value in row.items()})
        return qualified

    def _execute_joins(self, query: SelectQuery, plan: ExecutionPlan) -> list[dict[str, Any]]:
        order = plan.join_order
        if not order:
            return []
        current = self._rows_for_alias(query, plan.access_paths[order[0]])
        joined_aliases = {order[0]}

        for alias in order[1:]:
            right_rows = self._rows_for_alias(query, plan.access_paths[alias])
            conditions = [
                join
                for join in query.joins
                if (join.left_alias == alias and join.right_alias in joined_aliases)
                or (join.right_alias == alias and join.left_alias in joined_aliases)
            ]
            current = self._hash_join(current, right_rows, alias, conditions)
            joined_aliases.add(alias)
        return current

    @staticmethod
    def _hash_join(
        left_rows: list[dict[str, Any]],
        right_rows: list[dict[str, Any]],
        right_alias: str,
        conditions: list,
    ) -> list[dict[str, Any]]:
        if not conditions:
            return [dict(left, **right) for left in left_rows for right in right_rows]

        def left_key(row: dict[str, Any]) -> tuple[Any, ...]:
            key: list[Any] = []
            for join in conditions:
                if join.right_alias == right_alias:
                    key.append(row.get(f"{join.left_alias}.{join.left_column}"))
                else:
                    key.append(row.get(f"{join.right_alias}.{join.right_column}"))
            return tuple(key)

        def right_key(row: dict[str, Any]) -> tuple[Any, ...]:
            key: list[Any] = []
            for join in conditions:
                if join.right_alias == right_alias:
                    key.append(row.get(f"{join.right_alias}.{join.right_column}"))
                else:
                    key.append(row.get(f"{join.left_alias}.{join.left_column}"))
            return tuple(key)

        # The engine's one output order: left rows in order, then right rows
        # in storage order.
        buckets: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for row in right_rows:
            buckets.setdefault(right_key(row), []).append(row)
        joined: list[dict[str, Any]] = []
        for row in left_rows:
            for match in buckets.get(left_key(row), []):
                joined.append(dict(row, **match))
        return joined

