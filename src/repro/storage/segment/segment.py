"""Sealed segments: immutable time-partitioned slices of the audit tables.

A segment is one directory holding a typed column file per field of each
audit table (see :mod:`repro.storage.segment.columnio`), produced by
:func:`write_segment` when the segmented database seals a memtable.  Sealing
is crash-safe: the column files are written and fsynced inside a ``.tmp``
staging directory, the staging directory itself is fsynced, and only then is
it renamed into place — the segment becomes *live* when (and only when) the
manifest publish that follows references it.

:class:`SegmentReader` is the lazy read side: constructing one validates
nothing but the manifest entry; the column files are mapped, checksummed and
materialized into an indexed in-memory
:class:`~repro.storage.relational.table.Table` on first query against the
segment, and the per-segment footer stats (min/max ``starttime``) let the
database prune whole segments against a query's time window without touching
their files at all.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import SegmentError
from repro.storage.relational.database import AUDIT_SCHEMAS, audit_table
from repro.storage.relational.table import Table, TableSchema
from repro.storage.segment.columnio import ColumnReader, write_int_column, write_string_column


def _column_path(directory: Path, table: str, column: str) -> Path:
    return directory / f"{table}.{column}.col"


def write_segment(
    parent: Path,
    name: str,
    tables: Mapping[str, tuple[TableSchema, Mapping[str, Sequence[Any]]]],
) -> dict[str, Any]:
    """Seal ``tables`` (schema + column arrays each) into segment ``name``.

    Returns the manifest entry describing the sealed segment.  The caller is
    responsible for publishing that entry through the manifest — until then
    the segment directory is an invisible orphan, which is exactly what a
    crash between the two steps leaves behind.
    """
    staging = parent / f"{name}.tmp"
    final = parent / name
    for stale in (staging, final):
        if stale.exists():
            shutil.rmtree(stale)
    staging.mkdir(parents=True)

    entry: dict[str, Any] = {"name": name, "rows": {}, "columns": {}}
    for table_name, (schema, columns) in tables.items():
        column_stats: dict[str, Any] = {}
        rows = 0
        for definition in schema.columns:
            values = list(columns[definition.name])
            rows = len(values)
            path = _column_path(staging, table_name, definition.name)
            if definition.dtype is int:
                column_stats[definition.name] = write_int_column(path, values)
            else:
                column_stats[definition.name] = write_string_column(path, values)
        entry["rows"][table_name] = rows
        entry["columns"][table_name] = column_stats

    event_stats = entry["columns"].get("events", {}).get("starttime")
    if event_stats is not None:
        entry["min_starttime"] = event_stats["min"]
        entry["max_starttime"] = event_stats["max"]

    # Make the staged files' directory entries durable, then atomically move
    # the whole staging directory into place (os.replace on a directory is a
    # rename; the target was cleared above).
    fd = os.open(staging, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(staging, final)
    return entry


class SegmentReader:
    """Read side of one sealed segment: lazy, validated, immutable.

    Args:
        directory: The segment's directory (``<data_dir>/<name>``).
        entry: The manifest entry describing it.
    """

    def __init__(self, directory: Path, entry: Mapping[str, Any]) -> None:
        self._directory = directory
        self._entry = dict(entry)
        self._tables: dict[str, Table] = {}

    @property
    def name(self) -> str:
        return str(self._entry.get("name", self._directory.name))

    @property
    def entry(self) -> dict[str, Any]:
        return dict(self._entry)

    def rows(self, table: str) -> int:
        return int(self._entry.get("rows", {}).get(table, 0))

    @property
    def min_starttime(self) -> int | None:
        value = self._entry.get("min_starttime")
        return int(value) if value is not None else None

    @property
    def max_starttime(self) -> int | None:
        value = self._entry.get("max_starttime")
        return int(value) if value is not None else None

    def overlaps_window(self, low: int | None, high: int | None) -> bool:
        """Whether any event of this segment can fall inside ``[low, high]``.

        ``None`` bounds are open; unknown footer stats (an empty segment)
        conservatively overlap so correctness never depends on pruning.
        """
        minimum, maximum = self.min_starttime, self.max_starttime
        if minimum is None or maximum is None:
            return True
        if low is not None and maximum < low:
            return False
        if high is not None and minimum > high:
            return False
        return True

    @property
    def materialized(self) -> bool:
        """Whether any of this segment's tables has been decoded yet."""
        return bool(self._tables)

    def table(self, table_name: str) -> Table:
        """The segment's rows for ``table_name`` as an indexed in-memory table.

        Decoded from the mmapped column files on first call (verifying each
        file's checksum) and cached; a sealed segment never changes, so the
        materialized table is immutable by construction.

        Raises:
            SegmentError: on a missing, truncated or corrupt column file.
        """
        cached = self._tables.get(table_name)
        if cached is not None:
            return cached
        schema = AUDIT_SCHEMAS.get(table_name)
        if schema is None:
            raise SegmentError(f"segment {self.name} has no table {table_name!r}")
        expected = self.rows(table_name)
        columns: dict[str, list[Any]] = {}
        for definition in schema.columns:
            path = _column_path(self._directory, table_name, definition.name)
            if not path.exists():
                raise SegmentError(
                    f"segment {self.name} is missing column file {path.name}"
                )
            columns[definition.name] = ColumnReader(path, expected_rows=expected).values()
        table = audit_table(table_name)
        table.append_columns(columns, expected)
        self._tables[table_name] = table
        return table


__all__ = ["SegmentReader", "write_segment"]
