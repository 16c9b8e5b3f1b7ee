"""Planner and executor for relational :class:`SelectQuery` objects.

The execution strategy mirrors what PostgreSQL would do for the join shapes
the TBQL compiler produces (an event table joined with entity tables):

1. **Access path selection** — for each alias, cost every index-assisted
   access path its pushed-down predicate allows and keep the cheapest: an
   equality or IN-list on a hash-indexed column (estimated from the index's
   distinct-value count), or a range on a sorted-indexed column (counted
   exactly with two bisects, so a narrow time window wins); otherwise a
   filtered scan.
2. **Join ordering** — start from the alias with the smallest estimated
   cardinality and repeatedly join the connected alias with the smallest
   estimate (a greedy bushy-to-left-deep heuristic, which is adequate for the
   star-shaped joins produced here).  Ties go to the alias declared first.
3. **Index-probe hash joins** — every join condition is an equi-join.  Each
   alias after the first may be resolved by *probing*: the distinct join keys
   the joined relation already binds are looked up in the alias's
   hash-indexed join column, when ``keys × rows-per-key`` is below its own
   access path's estimate — so ``s`` and ``o`` of a windowed pattern touch
   only the entities its events name.  Either way the alias's full
   pushed-down predicate filters its positions, and a hash table built on
   them checks every join condition.  Rows come out in one order: the joined
   relation's order, then the new alias's positions ascending (every access
   path returns positions in storage order).
4. Cross-alias residual filters, projection, DISTINCT, ORDER BY and LIMIT are
   applied on the joined rows.

Execution is **columnar**: each alias resolves to a list of row *positions*
(index lookups plus vectorized residual filtering over column arrays), joins
carry tuples of per-alias positions, and join keys / output values are read
straight out of the tables' column arrays.  No intermediate row dicts are
materialized anywhere on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Container, Mapping, Sequence

from repro.errors import QueryError
from repro.storage.relational.expression import (
    Expression,
    TrueExpression,
    equality_lookups,
    membership_lookups,
    range_lookups,
)
from repro.storage.relational.query import QueryResult, SelectQuery
from repro.storage.relational.table import Table


@dataclass
class AccessPath:
    """The chosen access path for one alias."""

    alias: str
    table: Table
    kind: str  # "index-eq", "index-in", "index-range" or "scan"
    column: str | None = None
    value: Any = None
    values: tuple[Any, ...] | None = None
    low: Any = None
    high: Any = None
    estimated_rows: float = 0.0
    #: ``(column, joined alias, joined column)``: the hash-indexed join column
    #: this alias may be probed through once the joined alias is bound (set
    #: for every alias after the first in the join order that has one).
    probe: tuple[str, str, str] | None = None

    def describe(self) -> str:
        """Human-readable description used by EXPLAIN output."""
        if self.kind == "index-eq":
            access = f"index lookup {self.column}={self.value!r}"
        elif self.kind == "index-in":
            access = f"index lookup {self.column} IN ({len(self.values or ())} values)"
        elif self.kind == "index-range":
            access = f"index range {self.column} in [{self.low}, {self.high}]"
        else:
            access = "sequential scan"
        notes = f"~{self.estimated_rows:,.0f} rows"
        if self.probe is not None:
            column, alias, joined_column = self.probe
            notes += f"; probe {column} ← {alias}.{joined_column}"
        return f"{self.alias}: {access} ({notes})"


@dataclass
class ExecutionPlan:
    """The full plan for one query: access paths plus join order."""

    access_paths: dict[str, AccessPath]
    join_order: list[str]

    def describe(self) -> list[str]:
        """EXPLAIN-style lines describing the plan."""
        lines = [self.access_paths[alias].describe() for alias in self.join_order]
        lines.append("join order: " + " -> ".join(self.join_order))
        return lines


class _Relation:
    """An intermediate join result: per-alias row positions, no row dicts.

    ``rows`` holds one tuple of table positions per surviving joined row,
    aligned with ``aliases``; ``slot`` maps an alias to its tuple index.
    """

    __slots__ = ("aliases", "slot", "rows")

    def __init__(self, aliases: tuple[str, ...], rows: list[tuple[int, ...]]) -> None:
        self.aliases = aliases
        self.slot = {alias: index for index, alias in enumerate(aliases)}
        self.rows = rows


class _JoinedRowView(Mapping[str, Any]):
    """Zero-copy qualified-row view (``alias.column`` → value) over a relation.

    Cross-alias residual filters evaluate against this mapping; the value is
    read from the owning table's column array at the row's position.
    """

    __slots__ = ("_fields", "_row")

    def __init__(self, fields: dict[str, tuple[int, Sequence[Any]]]) -> None:
        self._fields = fields
        self._row: tuple[int, ...] = ()

    def rebind(self, row: tuple[int, ...]) -> "_JoinedRowView":
        self._row = row
        return self

    def __getitem__(self, key: str) -> Any:
        slot, array = self._fields[key]
        return array[self._row[slot]]

    def __iter__(self):
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)


class QueryExecutor:
    """Plans and executes :class:`SelectQuery` objects against a table dict."""

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables

    # -- planning ----------------------------------------------------------

    def plan(self, query: SelectQuery) -> ExecutionPlan:
        """Produce an execution plan without running the query."""
        if not query.tables:
            raise QueryError("query has no tables")
        access_paths: dict[str, AccessPath] = {}
        for ref in query.tables:
            table = self._tables.get(ref.table)
            if table is None:
                raise QueryError(f"unknown table {ref.table!r}")
            predicate = query.filter_for_alias(ref.alias)
            access_paths[ref.alias] = self._choose_access_path(ref.alias, table, predicate)
        join_order = self._order_joins(query, access_paths)
        for index, alias in enumerate(join_order[1:], start=1):
            path = access_paths[alias]
            probes = [
                (column, joined_alias, joined_column)
                for column, joined_alias, joined_column in _join_conditions(
                    query, alias, join_order[:index]
                )
                if column in path.table.hash_indexed_columns()
                and access_paths[joined_alias].table.column_array(joined_column) is not None
            ]
            # The hash-indexed join column with the fewest rows per key.
            path.probe = min(
                probes,
                key=lambda probe: path.table.estimate_selectivity(probe[0]),
                default=None,
            )
        return ExecutionPlan(access_paths=access_paths, join_order=join_order)

    def _choose_access_path(
        self, alias: str, table: Table, predicate: Expression
    ) -> AccessPath:
        """Pick the cheapest index-assisted access path for one alias.

        All indexable conjuncts (equalities, IN-lists, ranges) are costed and
        the lowest-estimate candidate wins; a sequential scan is the fallback.
        """
        candidates: list[AccessPath] = []
        has_filter = not isinstance(predicate, TrueExpression)
        equalities = equality_lookups(predicate) if has_filter else {}
        for column, value in equalities.items():
            if column in table.hash_indexed_columns():
                estimate = max(1.0, len(table) * table.estimate_selectivity(column))
                candidates.append(
                    AccessPath(
                        alias=alias,
                        table=table,
                        kind="index-eq",
                        column=column,
                        value=value,
                        estimated_rows=estimate,
                    )
                )
        memberships = membership_lookups(predicate) if has_filter else {}
        for column, values in memberships.items():
            if column in table.hash_indexed_columns():
                per_value = max(1.0, len(table) * table.estimate_selectivity(column))
                candidates.append(
                    AccessPath(
                        alias=alias,
                        table=table,
                        kind="index-in",
                        column=column,
                        values=values,
                        estimated_rows=per_value * len(values),
                    )
                )
        ranges = range_lookups(predicate) if has_filter else {}
        for column, (low, high) in ranges.items():
            if column in table.sorted_indexed_columns():
                try:
                    count = table.count_range(column, low, high)
                except TypeError:
                    # A bound that does not compare with the indexed values
                    # (``size > "5"`` on an int column): the filtered scan
                    # applies Comparison's string coercion instead.
                    continue
                candidates.append(
                    AccessPath(
                        alias=alias,
                        table=table,
                        kind="index-range",
                        column=column,
                        low=low,
                        high=high,
                        estimated_rows=float(count),
                    )
                )
        if candidates:
            return min(candidates, key=lambda path: path.estimated_rows)
        selectivity = 1.0 if isinstance(predicate, TrueExpression) else 0.5
        return AccessPath(
            alias=alias,
            table=table,
            kind="scan",
            estimated_rows=max(1.0, len(table) * selectivity),
        )

    def _order_joins(
        self, query: SelectQuery, access_paths: dict[str, AccessPath]
    ) -> list[str]:
        # A list in declaration order, so ``min`` breaks ties deterministically.
        remaining = query.aliases()
        if not remaining:
            return []
        # adjacency from join conditions
        adjacency: dict[str, set[str]] = {alias: set() for alias in remaining}
        for join in query.joins:
            left, right = join.aliases()
            adjacency[left].add(right)
            adjacency[right].add(left)

        order: list[str] = []
        # Start with the smallest estimated alias.
        current = min(remaining, key=lambda alias: access_paths[alias].estimated_rows)
        order.append(current)
        remaining.remove(current)
        while remaining:
            connected = [
                alias
                for alias in remaining
                if any(neighbor in order for neighbor in adjacency[alias])
            ]
            candidates = connected or remaining
            nxt = min(candidates, key=lambda alias: access_paths[alias].estimated_rows)
            order.append(nxt)
            remaining.remove(nxt)
        return order

    # -- execution ---------------------------------------------------------

    def execute(self, query: SelectQuery) -> QueryResult:
        """Execute ``query`` and return its result set."""
        plan = self.plan(query)
        relation = self._execute_joins(query, plan)

        # Residual cross-alias filters, evaluated over a zero-copy view.
        if query.cross_filters and relation.rows:
            view = _JoinedRowView(self._qualified_fields(query, relation))
            rows = relation.rows
            for predicate in query.cross_filters:
                rows = [row for row in rows if predicate.evaluate(view.rebind(row))]
            relation.rows = rows

        # Projection: read output values straight from the column arrays.
        if query.projection:
            columns = tuple(output.output_name for output in query.projection)
            extractors = [
                self._extractor(relation, output.alias, self._tables[query.table_for_alias(output.alias)], output.column)
                for output in query.projection
            ]
        else:
            columns, extractors = self._all_column_extractors(query, relation)
        projected = [
            tuple(
                array[row[slot]] if array is not None else None
                for slot, array in extractors
            )
            for row in relation.rows
        ]

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
                    value = row[index] if index is not None else None
                    key.append(value)
                return tuple(key)

            reverse = bool(query.order_by and query.order_by[0].descending)
            projected.sort(key=sort_key, reverse=reverse)

        if query.limit is not None:
            projected = projected[: query.limit]

        return QueryResult(columns=columns, rows=tuple(projected))

    def explain(self, query: SelectQuery) -> list[str]:
        """Return EXPLAIN-style plan lines without executing the query."""
        return self.plan(query).describe()

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _extractor(
        relation: _Relation, alias: str, table: Table, column: str
    ) -> tuple[int, Sequence[Any] | None]:
        """(slot, column array) for reading ``alias.column`` out of a relation.

        A ``None`` array means the column does not exist; its value projects
        as NULL, matching the old dict-based ``row.get``.
        """
        slot = relation.slot.get(alias)
        if slot is None:
            return (0, None)
        return (slot, table.column_array(column))

    def _all_column_extractors(
        self, query: SelectQuery, relation: _Relation
    ) -> tuple[tuple[str, ...], list[tuple[int, Sequence[Any] | None]]]:
        columns: list[str] = []
        extractors: list[tuple[int, Sequence[Any] | None]] = []
        for ref in query.tables:
            table = self._tables[ref.table]
            for name in table.schema.column_names():
                columns.append(f"{ref.alias}.{name}")
                extractors.append(self._extractor(relation, ref.alias, table, name))
        return tuple(columns), extractors

    def _qualified_fields(
        self, query: SelectQuery, relation: _Relation
    ) -> dict[str, tuple[int, Sequence[Any]]]:
        """``alias.column`` → (slot, column array) for every joined column."""
        fields: dict[str, tuple[int, Sequence[Any]]] = {}
        for ref in query.tables:
            slot = relation.slot.get(ref.alias)
            if slot is None:
                continue
            table = self._tables[ref.table]
            for name in table.schema.column_names():
                array = table.column_array(name)
                if array is not None:
                    fields[f"{ref.alias}.{name}"] = (slot, array)
        return fields

    def _positions_for_alias(
        self, query: SelectQuery, path: AccessPath, candidates: Sequence[int] | None = None
    ) -> list[int]:
        """Candidate positions (the access path's when ``None``), narrowed by
        the alias's full predicate."""
        predicate = query.filter_for_alias(path.alias)
        residual = None if isinstance(predicate, TrueExpression) else predicate
        if candidates is not None:
            positions: Sequence[int] | None = candidates
        elif path.kind == "index-eq":
            positions = path.table.positions_equal(path.column, path.value)
        elif path.kind == "index-in":
            positions = path.table.positions_in(path.column, path.values or ())
        elif path.kind == "index-range":
            positions = path.table.positions_range(path.column, low=path.low, high=path.high)
        else:
            positions = None
        return path.table.filter_positions(residual, positions)

    @staticmethod
    def _probe_positions(
        relation: _Relation, path: AccessPath, alias_tables: dict[str, Table]
    ) -> Sequence[int] | None:
        """The positions of ``path``'s alias whose probe column holds a join
        key ``relation`` binds, or ``None`` when the keys are expected to
        reach at least as many rows as the alias's own access path.

        The decision counts the actual keys, so a selective first alias
        (ten ``nginx`` processes) probes even when the plan could not know.
        """
        if path.probe is None:
            return None
        column, joined_alias, joined_column = path.probe
        slot = relation.slot[joined_alias]
        array = alias_tables[joined_alias].column_array(joined_column)
        keys = {array[row[slot]] for row in relation.rows}
        rows_per_key = len(path.table) * path.table.estimate_selectivity(column)
        if len(keys) * rows_per_key >= path.estimated_rows:
            return None
        return path.table.positions_in(column, keys)

    def _execute_joins(self, query: SelectQuery, plan: ExecutionPlan) -> _Relation:
        order = plan.join_order
        if not order:
            return _Relation((), [])
        alias_tables = {ref.alias: self._tables[ref.table] for ref in query.tables}
        first = plan.access_paths[order[0]]
        relation = _Relation(
            (order[0],),
            [(position,) for position in self._positions_for_alias(query, first)],
        )

        for alias in order[1:]:
            path = plan.access_paths[alias]
            right_positions = self._positions_for_alias(
                query, path, self._probe_positions(relation, path, alias_tables)
            )
            relation = self._hash_join(
                relation,
                alias,
                path.table,
                right_positions,
                _join_conditions(query, alias, relation.slot),
                alias_tables,
            )
        return relation

    @staticmethod
    def _hash_join(
        left: _Relation,
        right_alias: str,
        right_table: Table,
        right_positions: list[int],
        conditions: list[tuple[str, str, str]],
        alias_tables: dict[str, Table],
    ) -> _Relation:
        """Join ``right_positions`` (ascending) onto ``left``.

        Output order: ``left``'s row order, then right positions ascending.
        """
        aliases = left.aliases + (right_alias,)
        if not conditions:
            # Cartesian product (rare: disconnected patterns).
            rows = [
                row + (position,) for row in left.rows for position in right_positions
            ]
            return _Relation(aliases, rows)

        # Per-condition key readers: (slot, array) on the joined side, a bare
        # array on the new side.  A missing column reads as a constant None,
        # matching the old dict-based ``row.get``.
        left_keys: list[tuple[int, Sequence[Any] | None]] = []
        right_keys: list[Sequence[Any] | None] = []
        for column, joined_alias, joined_column in conditions:
            left_keys.append(
                (left.slot[joined_alias], alias_tables[joined_alias].column_array(joined_column))
            )
            right_keys.append(right_table.column_array(column))

        def left_key(row: tuple[int, ...]) -> tuple[Any, ...]:
            return tuple(
                array[row[slot]] if array is not None else None
                for slot, array in left_keys
            )

        def right_key(position: int) -> tuple[Any, ...]:
            return tuple(
                array[position] if array is not None else None for array in right_keys
            )

        # Always build on the new side and probe in left order: the output
        # order then does not depend on which side is smaller or on whether
        # the new side was resolved by its access path or by a probe.
        buckets: dict[tuple[Any, ...], list[int]] = {}
        for position in right_positions:
            buckets.setdefault(right_key(position), []).append(position)
        joined: list[tuple[int, ...]] = []
        for row in left.rows:
            matches = buckets.get(left_key(row))
            if matches:
                joined.extend(row + (position,) for position in matches)
        return _Relation(aliases, joined)


def _join_conditions(
    query: SelectQuery, alias: str, bound: Container[str]
) -> list[tuple[str, str, str]]:
    """``alias``'s join conditions to the aliases in ``bound``, each as
    ``(alias's column, bound alias, bound alias's column)``."""
    conditions: list[tuple[str, str, str]] = []
    for join in query.joins:
        if join.right_alias == alias and join.left_alias in bound:
            conditions.append((join.right_column, join.left_alias, join.left_column))
        elif join.left_alias == alias and join.right_alias in bound:
            conditions.append((join.left_column, join.right_alias, join.right_column))
    return conditions
