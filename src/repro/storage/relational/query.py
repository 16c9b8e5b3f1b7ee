"""Logical query model for the relational engine.

A :class:`SelectQuery` describes a select-project-join query over the audit
tables: a set of table references with aliases, per-alias filter predicates,
equi-join conditions between aliases, a projection list, and the usual
``DISTINCT`` / ``ORDER BY`` / ``LIMIT`` modifiers.  The TBQL SQL compiler emits
these objects; :mod:`repro.storage.relational.executor` plans and runs them;
:mod:`repro.storage.sql.render` renders them as SQL text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.storage.relational.expression import Expression, TrueExpression


@dataclass(frozen=True)
class TableRef:
    """A table reference with an alias, e.g. ``events e1``."""

    table: str
    alias: str


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join condition ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def aliases(self) -> tuple[str, str]:
        return (self.left_alias, self.right_alias)


@dataclass(frozen=True)
class OutputColumn:
    """One projected output column ``alias.column AS name``."""

    alias: str
    column: str
    name: str | None = None

    @property
    def output_name(self) -> str:
        return self.name or f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class OrderBy:
    """An ORDER BY term."""

    alias: str
    column: str
    descending: bool = False


@dataclass
class SelectQuery:
    """A select-project-join query over the relational audit store.

    Attributes:
        tables: Table references, one per alias.
        filters: Per-alias single-table predicates (pushed down by the planner).
        joins: Equi-join conditions between aliases.
        cross_filters: Predicates that span aliases and cannot be pushed down;
            their expressions reference qualified ``alias.column`` names.
        projection: Output columns; empty means "all columns of all aliases".
        distinct: Whether duplicate output rows are removed.
        order_by: Ordering terms applied to the joined result.
        limit: Maximum number of output rows (``None`` = unlimited).
    """

    tables: list[TableRef] = field(default_factory=list)
    filters: dict[str, Expression] = field(default_factory=dict)
    joins: list[JoinCondition] = field(default_factory=list)
    cross_filters: list[Expression] = field(default_factory=list)
    projection: list[OutputColumn] = field(default_factory=list)
    distinct: bool = False
    order_by: list[OrderBy] = field(default_factory=list)
    limit: int | None = None
    #: Known-declared aliases; a pure cache over ``tables`` so the per-call
    #: alias checks in the construction helpers stay O(1).  ``_require_alias``
    #: falls back to scanning ``tables`` on a miss, so constructing a plan
    #: with ``tables=[...]`` or appending to it directly stays correct.
    _alias_cache: set[str] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    # -- construction helpers ------------------------------------------------

    def add_table(self, table: str, alias: str) -> "SelectQuery":
        """Register a table under ``alias``.

        Raises:
            QueryError: if the alias is already used.
        """
        if any(ref.alias == alias for ref in self.tables):
            raise QueryError(f"duplicate table alias {alias!r}")
        self.tables.append(TableRef(table=table, alias=alias))
        self._alias_cache.add(alias)
        return self

    def add_filter(self, alias: str, predicate: Expression) -> "SelectQuery":
        """AND a single-table predicate onto ``alias``."""
        self._require_alias(alias)
        existing = self.filters.get(alias)
        if existing is None or isinstance(existing, TrueExpression):
            self.filters[alias] = predicate
        else:
            self.filters[alias] = existing & predicate
        return self

    def add_join(
        self, left_alias: str, left_column: str, right_alias: str, right_column: str
    ) -> "SelectQuery":
        """Add an equi-join condition between two aliases."""
        self._require_alias(left_alias)
        self._require_alias(right_alias)
        self.joins.append(
            JoinCondition(
                left_alias=left_alias,
                left_column=left_column,
                right_alias=right_alias,
                right_column=right_column,
            )
        )
        return self

    def add_output(self, alias: str, column: str, name: str | None = None) -> "SelectQuery":
        """Append an output column to the projection."""
        self._require_alias(alias)
        self.projection.append(OutputColumn(alias=alias, column=column, name=name))
        return self

    def aliases(self) -> list[str]:
        """Every alias declared in the query, in declaration order."""
        return [ref.alias for ref in self.tables]

    def table_for_alias(self, alias: str) -> str:
        """The table name behind ``alias``."""
        for ref in self.tables:
            if ref.alias == alias:
                return ref.table
        raise QueryError(f"unknown alias {alias!r}")

    def filter_for_alias(self, alias: str) -> Expression:
        """The pushed-down predicate for ``alias`` (TRUE when absent)."""
        return self.filters.get(alias, TrueExpression())

    def _require_alias(self, alias: str) -> None:
        if alias in self._alias_cache:
            return
        if any(ref.alias == alias for ref in self.tables):
            self._alias_cache.add(alias)
            return
        raise QueryError(f"alias {alias!r} is not declared in the FROM clause")


class RowFieldView(Mapping[str, Any]):
    """Zero-copy mapping view over a slice of one result row.

    ``fields`` maps an attribute name to its index in the underlying row
    tuple, so a binding like the TBQL executor's subject/object/event dicts
    can be exposed without copying the row into per-entity dicts.  An overlay
    dict accepts the occasional synthesized attribute (``edge_ids``) without
    touching the shared field map.
    """

    __slots__ = ("_row", "_fields", "_overlay")

    def __init__(
        self,
        row: Sequence[Any],
        fields: Mapping[str, int],
        overlay: dict[str, Any] | None = None,
    ) -> None:
        self._row = row
        self._fields = fields
        self._overlay = overlay

    def __getitem__(self, key: str) -> Any:
        if self._overlay is not None and key in self._overlay:
            return self._overlay[key]
        return self._row[self._fields[key]]

    def __setitem__(self, key: str, value: Any) -> None:
        if self._overlay is None:
            self._overlay = {}
        self._overlay[key] = value

    def __iter__(self) -> Iterator[str]:
        yield from self._fields
        if self._overlay is not None:
            for key in self._overlay:
                if key not in self._fields:
                    yield key

    def __len__(self) -> int:
        extra = 0
        if self._overlay is not None:
            extra = sum(1 for key in self._overlay if key not in self._fields)
        return len(self._fields) + extra

    def __repr__(self) -> str:
        return f"RowFieldView({dict(self)!r})"


@dataclass(frozen=True)
class QueryResult:
    """The result of executing a :class:`SelectQuery`.

    Attributes:
        columns: Output column names in projection order.
        rows: Result rows as tuples aligned with ``columns``.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def as_dicts(self) -> list[dict[str, Any]]:
        """The result rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column_index(self) -> dict[str, int]:
        """Column name → row-tuple index, for repeated positional access."""
        return {name: index for index, name in enumerate(self.columns)}

    def iter_rows(
        self, columns: Sequence[str] | None = None
    ) -> Iterator[tuple[Any, ...]]:
        """Iterate result rows lazily, optionally restricted to ``columns``.

        Raises:
            QueryError: if a requested column is not part of the result.
        """
        if columns is None:
            yield from self.rows
            return
        index = self.column_index()
        try:
            selected = [index[name] for name in columns]
        except KeyError as exc:
            raise QueryError(f"result has no column {exc.args[0]!r}") from None
        for row in self.rows:
            yield tuple(row[i] for i in selected)

    def column_groups(self, separator: str = ".") -> dict[str, dict[str, int]]:
        """Group columns named ``prefix<separator>attr`` into per-prefix field maps.

        Returns prefix → {attribute: row index}; columns without the separator
        are grouped under ``""``.  The maps plug straight into
        :class:`RowFieldView`, which is how the TBQL executor splits each row
        into subject/object/event bindings without copying.
        """
        groups: dict[str, dict[str, int]] = {}
        for index, name in enumerate(self.columns):
            prefix, sep, attribute = name.partition(separator)
            if not sep:
                prefix, attribute = "", name
            groups.setdefault(prefix, {})[attribute] = index
        return groups

    def column(self, name: str) -> list[Any]:
        """One output column as a list.

        Raises:
            QueryError: if the column is not part of the result.
        """
        try:
            index = self.columns.index(name)
        except ValueError:
            raise QueryError(f"result has no column {name!r}") from None
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)
