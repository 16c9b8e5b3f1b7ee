"""Tables for the relational engine.

A :class:`Table` owns a schema (ordered column names with optional types), a
**columnar** row store (one value array per column) and any number of
secondary indexes.  Access paths operate on *row positions*: full scans,
hash-index lookups and sorted-index range scans each produce position lists,
and pushed-down predicates are evaluated vectorized over those positions by
:mod:`repro.storage.relational.vectorized` instead of per-row
``Expression.evaluate`` calls.

Rows enter a table in batches, column-wise (:meth:`Table.append_columns`):
each column is validated once per batch, and each column array and index is
extended once.

The historical dict-row API (``scan`` / ``lookup_*`` yielding dicts,
``row_at``) is kept as a thin materializing layer on top of the positional
primitives, so existing callers and tests are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.storage.relational.expression import Expression, TrueExpression
from repro.storage.relational.index import HashIndex, SortedIndex
from repro.storage.relational.vectorized import filter_positions

Row = dict[str, Any]

_NONE_TYPE = type(None)


@dataclass(frozen=True)
class ColumnDefinition:
    """One column of a table schema.

    Attributes:
        name: Column name.
        dtype: Expected Python type; ``None`` disables type checking.
        nullable: Whether ``None`` values are accepted.
    """

    name: str
    dtype: type | None = None
    nullable: bool = True


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of column definitions."""

    name: str
    columns: tuple[ColumnDefinition, ...]

    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def validate_row(self, row: Mapping[str, Any]) -> Row:
        """Validate and normalise one row against the schema.

        Unknown columns raise; missing nullable columns become ``None``.  The
        rules are :meth:`validate_columns`'s, applied to a batch of one.

        Raises:
            SchemaError: on unknown columns, missing non-nullable columns, or
                type mismatches.
        """
        self.validate_columns({name: [value] for name, value in row.items()}, 1)
        return {name: row.get(name) for name in self.column_names()}

    def validate_columns(self, columns: Mapping[str, Sequence[Any]], count: int) -> None:
        """Check a batch of ``count`` rows given column-wise, writing nothing.

        A column absent from ``columns`` is ``None`` in every row, and
        ``None`` in a non-nullable column is a missing value.  Each column's
        distinct value types are checked once with ``issubclass`` (so an
        ``int`` column accepts ``bool``, as ``isinstance`` does).

        Raises:
            SchemaError: on unknown columns, a column whose length is not
                ``count``, missing non-nullable values, or type mismatches.
        """
        unknown = set(columns) - set(self.column_names())
        if unknown:
            raise SchemaError(
                f"table {self.name!r}: unknown column(s) {sorted(unknown)}"
            )
        for column in self.columns:
            values = columns.get(column.name, ())
            if column.name not in columns:
                types = {_NONE_TYPE} if count else set()
            elif len(values) != count:
                raise SchemaError(
                    f"table {self.name!r}: column {column.name!r} holds "
                    f"{len(values)} values for {count} rows"
                )
            else:
                types = set(map(type, values))
            if _NONE_TYPE in types:
                if not column.nullable:
                    raise SchemaError(
                        f"table {self.name!r}: missing value for column {column.name!r}"
                    )
                types.discard(_NONE_TYPE)
            dtype = column.dtype
            if dtype is None or all(issubclass(kind, dtype) for kind in types):
                continue
            wrong = next(
                value for value in values if value is not None and not isinstance(value, dtype)
            )
            raise SchemaError(
                f"table {self.name!r}: column {column.name!r} expects "
                f"{dtype.__name__}, got {type(wrong).__name__}"
            )


def _columns_from_rows(rows: Iterable[Mapping[str, Any]]) -> tuple[dict[str, list[Any]], int]:
    """Turn dict rows into ``(columns, count)`` for :meth:`Table.append_columns`.

    Every key any row has becomes a column; a row without that key holds
    ``None`` there (so an unknown key still reaches schema validation).
    """
    rows = list(rows)
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: [row.get(key) for row in rows] for key in keys}, len(rows)


class Table:
    """An in-memory columnar table with secondary indexes.

    Rows are stored append-only; the audit-log workload never updates or
    deletes individual rows (a whole trace is reloaded instead), which is also
    how the paper's deployment uses PostgreSQL.  Each column lives in its own
    parallel array, so filters and join-key extraction touch only the columns
    they need.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._column_names: tuple[str, ...] = schema.column_names()
        self._columns: dict[str, list[Any]] = {name: [] for name in self._column_names}
        self._row_count = 0
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}

    # -- schema / indexes ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def create_hash_index(self, column: str) -> None:
        """Create (and backfill) a hash index on ``column``."""
        self._require_column(column)
        if column in self._hash_indexes:
            return
        index = HashIndex(column)
        index.extend(self._columns[column], range(self._row_count))
        self._hash_indexes[column] = index

    def create_sorted_index(self, column: str) -> None:
        """Create (and backfill) a sorted index on ``column``."""
        self._require_column(column)
        if column in self._sorted_indexes:
            return
        index = SortedIndex(column)
        index.extend(self._columns[column], range(self._row_count))
        self._sorted_indexes[column] = index

    def hash_indexed_columns(self) -> set[str]:
        return set(self._hash_indexes)

    def sorted_indexed_columns(self) -> set[str]:
        return set(self._sorted_indexes)

    def _require_column(self, column: str) -> None:
        if column not in self._columns:
            raise SchemaError(f"table {self.name!r} has no column {column!r}")

    # -- mutation ------------------------------------------------------------

    def append_columns(self, columns: Mapping[str, Sequence[Any]], count: int) -> int:
        """Append ``count`` rows given column-wise; returns ``count``.

        The one way rows enter a table.  Every column is validated
        (:meth:`TableSchema.validate_columns`) before anything is written, so
        a refused batch leaves the rows and every index as they were.  Then
        each column array is extended once and each index takes the batch
        in one step.  All indexes share one list of position ints: seven
        indexes on a column store would otherwise hold seven ints per row.
        """
        self.schema.validate_columns(columns, count)
        if not count:
            return 0
        batch = {
            name: columns[name] if name in columns else [None] * count
            for name in self._column_names
        }
        start = self._row_count
        for name, values in batch.items():
            self._columns[name].extend(values)
        self._row_count = start + count
        positions = list(range(start, start + count))
        for column, hash_index in self._hash_indexes.items():
            hash_index.extend(batch[column], positions)
        for column, sorted_index in self._sorted_indexes.items():
            sorted_index.extend(batch[column], positions)
        return count

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert one row; returns its position."""
        position = self._row_count
        self.append_columns(*_columns_from_rows([row]))
        return position

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert many rows, all or none; returns the number inserted."""
        return self.append_columns(*_columns_from_rows(rows))

    # -- positional access (columnar hot path) --------------------------------

    def __len__(self) -> int:
        return self._row_count

    def column_array(self, column: str) -> Sequence[Any] | None:
        """The live value array for ``column`` (``None`` if absent).

        The array aliases table storage — callers must treat it as read-only.
        It grows in place on insert, so positions obtained earlier stay valid.
        """
        return self._columns.get(column)

    def column_store(self) -> Mapping[str, Sequence[Any]]:
        """All column arrays, keyed by name (read-only alias of storage)."""
        return self._columns

    def all_positions(self) -> range:
        """Every row position, in storage order."""
        return range(self._row_count)

    def positions_equal(self, column: str, value: Any) -> Sequence[int]:
        """Positions whose ``column`` equals ``value`` (index-assisted).

        When a hash index serves the lookup the returned sequence aliases
        index state (zero-copy hot path) — callers must treat it as
        read-only; use ``list(...)`` before mutating.
        """
        hash_index = self._hash_indexes.get(column)
        if hash_index is not None:
            return hash_index.bucket(value)
        sorted_index = self._sorted_indexes.get(column)
        if sorted_index is not None:
            return sorted_index.lookup(value)
        array = self._columns.get(column)
        if array is None:
            return ()
        return [position for position, stored in enumerate(array) if stored == value]

    def positions_in(self, column: str, values: Iterable[Any]) -> Sequence[int]:
        """Positions whose ``column`` is one of ``values`` (deduplicated)."""
        hash_index = self._hash_indexes.get(column)
        if hash_index is not None:
            return hash_index.lookup_many(values)
        array = self._columns.get(column)
        if array is None:
            return ()
        allowed = set(values)
        return [position for position, stored in enumerate(array) if stored in allowed]

    def positions_range(
        self, column: str, low: Any = None, high: Any = None
    ) -> Sequence[int]:
        """Positions whose ``column`` lies in ``[low, high]`` (inclusive), in
        storage order — the order every other access path returns."""
        sorted_index = self._sorted_indexes.get(column)
        if sorted_index is not None:
            return sorted(sorted_index.range(low, high))
        array = self._columns.get(column)
        if array is None:
            return ()
        matched: list[int] = []
        for position, value in enumerate(array):
            if value is None:
                continue
            if low is not None and value < low:
                continue
            if high is not None and value > high:
                continue
            matched.append(position)
        return matched

    def filter_positions(
        self, predicate: Expression | None, positions: Sequence[int] | None = None
    ) -> list[int]:
        """Vectorized predicate evaluation over candidate positions.

        ``positions=None`` means every row; ``predicate=None`` means no
        filtering.
        """
        if predicate is None:
            return list(self.all_positions()) if positions is None else list(positions)
        return filter_positions(self._columns, self._row_count, predicate, positions)

    # -- dict-row access (compatibility layer) --------------------------------

    def row_at(self, position: int) -> Row:
        """The row stored at ``position``, materialized as a dict."""
        columns = self._columns
        return {name: columns[name][position] for name in self._column_names}

    def rows_at(self, positions: Iterable[int]) -> Iterator[Row]:
        """Materialize the rows at ``positions`` as dicts, in order."""
        columns = [self._columns[name] for name in self._column_names]
        names = self._column_names
        for position in positions:
            yield {name: column[position] for name, column in zip(names, columns)}

    def scan(self, predicate: Expression | None = None) -> Iterator[Row]:
        """Full scan, optionally filtered by ``predicate``."""
        yield from self.rows_at(self.filter_positions(predicate))

    def lookup_equal(
        self, column: str, value: Any, residual: Expression | None = None
    ) -> Iterator[Row]:
        """Index-assisted equality lookup with optional residual filter.

        Falls back to a vectorized scan when no usable index exists.
        """
        positions = self.positions_equal(column, value)
        yield from self.rows_at(self.filter_positions(residual, positions))

    def lookup_in(
        self, column: str, values: Iterable[Any], residual: Expression | None = None
    ) -> Iterator[Row]:
        """Index-assisted membership lookup with optional residual filter."""
        positions = self.positions_in(column, values)
        yield from self.rows_at(self.filter_positions(residual, positions))

    def lookup_range(
        self,
        column: str,
        low: Any = None,
        high: Any = None,
        residual: Expression | None = None,
    ) -> Iterator[Row]:
        """Index-assisted range lookup with optional residual filter."""
        positions = self.positions_range(column, low=low, high=high)
        yield from self.rows_at(self.filter_positions(residual, positions))

    # -- statistics ------------------------------------------------------------

    def estimate_selectivity(self, column: str) -> float:
        """Rough fraction of rows matched by an equality predicate on ``column``.

        Uses the hash index's distinct-value count when available, otherwise a
        pessimistic constant.  The planner uses this to order joins.
        """
        if not self._row_count:
            return 0.0
        index = self._hash_indexes.get(column)
        if index is not None and index.distinct_values():
            return 1.0 / index.distinct_values()
        return 0.1

    def count_range(self, column: str, low: Any = None, high: Any = None) -> int:
        """Exact number of rows whose sorted-indexed ``column`` lies in
        ``[low, high]``, without touching them.

        Raises:
            KeyError: when ``column`` has no sorted index.
            TypeError: when a bound does not compare with the column's values.
        """
        return self._sorted_indexes[column].count(low, high)

    def statistics(self) -> dict[str, Any]:
        """Summary statistics for EXPLAIN output and tests."""
        return {
            "name": self.name,
            "rows": self._row_count,
            "hash_indexes": sorted(self._hash_indexes),
            "sorted_indexes": sorted(self._sorted_indexes),
        }
