"""Result objects returned by the TBQL execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class TBQLResult:
    """The outcome of executing one TBQL query.

    Attributes:
        columns: Output column names in return-clause order (e.g.
            ``("p1.exename", "f1.name")``).
        rows: Result rows aligned with ``columns``.
        matched_event_ids: Ids of every audit event matched by any surviving
            binding, grouped by the TBQL event identifier.  The hunting
            benchmarks compare these against attack ground truth.
        bindings: The complete surviving variable bindings (entity identifier →
            entity row, event identifier → event row) before projection.
        statistics: Engine counters (per-pattern candidate counts, scheduling
            order, execution timings).
    """

    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Any, ...], ...] = ()
    matched_event_ids: dict[str, set[int]] = field(default_factory=dict)
    bindings: list[dict[str, dict[str, Any]]] = field(default_factory=list)
    statistics: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Result rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """One output column as a list.

        Raises:
            KeyError: if the column is not part of the result.
        """
        if name not in self.columns:
            raise KeyError(f"result has no column {name!r}")
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def all_matched_event_ids(self) -> set[int]:
        """The union of matched audit event ids across all event identifiers."""
        matched: set[int] = set()
        for ids in self.matched_event_ids.values():
            matched |= ids
        return matched

    def to_table(self, limit: int | None = 20) -> str:
        """Plain-text table rendering for the CLI and examples."""
        if not self.rows:
            return "(no results)"
        shown = list(self.rows[:limit] if limit is not None else self.rows)
        widths = [
            max(len(str(column)), *(len(str(row[i])) for row in shown))
            for i, column in enumerate(self.columns)
        ]
        header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(self.columns))
        separator = "-+-".join("-" * width for width in widths)
        lines = [header, separator]
        for row in shown:
            lines.append(" | ".join(str(value).ljust(widths[i]) for i, value in enumerate(row)))
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
