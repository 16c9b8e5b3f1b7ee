"""Durable, time-partitioned drop-in for :class:`RelationalDatabase`.

:class:`SegmentedRelationalDatabase` answers the same ``execute(SelectQuery)``
and takes the same batches as the in-memory relational store, but persists
events to disk:

* The **memtable** is a :class:`~repro.storage.relational.database.RelationalDatabase`
  holding every entity and the unsealed events.  Once it holds
  ``segment_rows`` events they are **sealed** into an immutable on-disk
  segment (:func:`~repro.storage.segment.segment.write_segment`), published
  through the atomic manifest, and the memtable's events table is truncated.
* ``SelectQuery`` execution **prunes** sealed segments whose min/max
  ``starttime`` footer stats cannot overlap the query's time window, then
  runs each surviving segment (and the memtable) through the existing
  vectorized column kernels and concatenates the partial results.  This is
  exact for TBQL pattern queries, which reference the ``events`` table exactly
  once: segments partition the events disjointly, entities are fully
  memory-resident, so each joined output row is produced by exactly one
  partition.  Queries outside that shape (no or multiple events aliases,
  ``ORDER BY``, ``LIMIT``) fall back to a lazily built combined view.
* Entities are small (bounded by distinct processes/files/hosts, not by event
  volume), so they stay fully memory-resident; each seal also persists the
  entity rows added since the previous one.  Reopening a data directory
  rebuilds the entity table and leaves event segments lazily mmapped until a
  query (or :meth:`SegmentedRelationalDatabase.event_rows`) touches them.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.auditing.entities import SystemEntity
from repro.auditing.events import SystemEvent
from repro.errors import QueryError, SegmentError
from repro.storage.relational.database import (
    ENTITY_SCHEMA,
    EVENT_SCHEMA,
    RelationalDatabase,
    audit_table,
)
from repro.storage.relational.executor import QueryExecutor
from repro.storage.relational.expression import range_lookups
from repro.storage.relational.query import QueryResult, SelectQuery
from repro.storage.relational.table import Row, Table
from repro.storage.segment.manifest import SegmentManifest
from repro.storage.segment.segment import SegmentReader, write_segment

#: Default number of memtable events that triggers a seal.
DEFAULT_SEGMENT_ROWS = 4096


class SegmentedRelationalDatabase:
    """On-disk segmented relational store that loads and answers like the in-memory one.

    Args:
        data_dir: Directory holding the manifest and sealed segments.  Opening
            an existing directory restores its sealed state (entities eagerly,
            event segments lazily).
        segment_rows: Memtable event count at which a seal is triggered.
    """

    def __init__(
        self,
        data_dir: str | Path,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
    ) -> None:
        if segment_rows < 1:
            raise QueryError(f"segment_rows must be positive, got {segment_rows}")
        self._segment_rows = segment_rows
        self._manifest = SegmentManifest(data_dir)
        self._data_dir = self._manifest.directory
        self._memtable = RelationalDatabase()
        #: Entity rows below this position of the (append-only) entity table
        #: are already in a sealed segment.
        self._sealed_entities = 0
        self._entries: list[dict[str, Any]] = []
        self._segments: list[SegmentReader] = []
        self._segment_executors: dict[str, QueryExecutor] = {}
        self._next_segment = 0
        self._combined: tuple[dict[str, Table], QueryExecutor] | None = None
        #: Cumulative segment-pruning counters, reset by :meth:`reset_scan_counters`.
        self.segments_pruned = 0
        self.segments_scanned = 0
        self._open()

    # -- lifecycle -----------------------------------------------------------

    def _open(self) -> None:
        """Restore sealed state from the manifest; drop unreferenced orphans.

        A crash between writing a segment directory and publishing the
        manifest leaves the directory as an orphan — removed here so a
        half-sealed segment can never resurface.
        """
        entries = self._manifest.load()
        live = {str(entry.get("name")) for entry in entries}
        for child in sorted(self._data_dir.iterdir()):
            if child.is_dir() and child.name not in live:
                shutil.rmtree(child)
        for entry in entries:
            name = str(entry.get("name"))
            directory = self._data_dir / name
            if not directory.is_dir():
                raise SegmentError(
                    f"manifest references segment {name!r} but {directory} is missing"
                )
            self._entries.append(dict(entry))
            self._segments.append(SegmentReader(directory, entry))
            index = _segment_index(name)
            if index is not None:
                self._next_segment = max(self._next_segment, index + 1)
        # Entities are memory-resident: rebuild the table from every sealed
        # segment's entity rows (eager and cheap — entity cardinality is tiny
        # next to event volume).  An id already stored, or repeated within a
        # segment, keeps its first row.
        entities = self._memtable.table("entities")
        for reader in self._segments:
            sealed = reader.table("entities")
            first: dict[int, int] = {}
            for position, entity_id in enumerate(sealed.column_array("id") or ()):
                if entity_id not in first and not self._memtable.has_entity(entity_id):
                    first[entity_id] = position
            columns = sealed.column_store()
            if len(first) < len(sealed):
                columns = {
                    name: [values[position] for position in first.values()]
                    for name, values in columns.items()
                }
            entities.append_columns(columns, len(first))
        self._sealed_entities = len(entities)

    def clear(self) -> None:
        """Drop all rows — memtable, sealed segments and manifest alike."""
        for child in sorted(self._data_dir.iterdir()):
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
        self._entries = []
        self._segments = []
        self._segment_executors = {}
        self._next_segment = 0
        self._memtable.clear()
        self._sealed_entities = 0
        self._invalidate_combined()

    # -- loading -------------------------------------------------------------

    def append_batch(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent]
    ) -> dict[str, int]:
        counts = self._memtable.append_batch(entities, ())
        # Insert in seal-threshold chunks rather than all at once: traces
        # arrive in collection (≈time) order, so sealing as the memtable
        # fills is what makes segments time-partitioned and prunable.
        unsealed = len(self._memtable.table("events"))
        batch: list[SystemEvent] = []
        for event in events:
            batch.append(event)
            if unsealed + len(batch) >= self._segment_rows:
                counts["events"] += self._memtable.append_batch((), batch)["events"]
                batch = []
                self.seal()
                unsealed = 0
        counts["events"] += self._memtable.append_batch((), batch)["events"]
        self._invalidate_combined()
        return counts

    # -- sealing ---------------------------------------------------------------

    @property
    def sealed_segments(self) -> int:
        return len(self._segments)

    @property
    def segment_readers(self) -> tuple[SegmentReader, ...]:
        """The live sealed-segment readers, oldest first."""
        return tuple(self._segments)

    def seal(self) -> str | None:
        """Seal the memtable into a new on-disk segment; returns its name.

        No-op (returns ``None``) when there is nothing unsealed.  The segment
        directory is fully written and fsynced before the manifest publish
        makes it visible, so a crash at any point leaves either the previous
        manifest (new directory = removable orphan) or the new one.
        """
        events = self._memtable.table("events")
        entities = self._memtable.table("entities")
        if not len(events) and len(entities) == self._sealed_entities:
            return None
        name = f"seg-{self._next_segment:05d}"
        unsealed = self._sealed_entities
        tables = {
            "events": (EVENT_SCHEMA, events.column_store()),
            "entities": (
                ENTITY_SCHEMA,
                {column: values[unsealed:] for column, values in entities.column_store().items()},
            ),
        }
        entry = write_segment(self._data_dir, name, tables)
        self._entries.append(entry)
        self._manifest.save(self._entries)
        self._segments.append(SegmentReader(self._data_dir / name, entry))
        self._next_segment += 1
        self._memtable.truncate("events")
        self._sealed_entities = len(entities)
        self._invalidate_combined()
        return name

    # -- querying --------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Access one audit table by name (``events`` spans every segment).

        Raises:
            QueryError: for unknown table names.
        """
        if name == "events" and self._segments:
            tables, _ = self._combined_view()
            return tables["events"]
        return self._memtable.table(name)

    def event_rows(self) -> Iterator[Row]:
        """Every stored event row, partition by partition: sealed segments
        oldest first, then the memtable.  Nothing is copied beyond the
        segments' own (cached) materialized tables."""
        for partition in self._event_partitions():
            yield from partition.scan()

    def _event_partitions(self) -> Iterator[Table]:
        """The events tables of the sealed segments, oldest first, then the
        memtable's."""
        for reader in self._segments:
            yield reader.table("events")
        yield self._memtable.table("events")

    def execute(self, query: SelectQuery) -> QueryResult:
        """Execute a select-project-join query across memtable and segments."""
        if not self._segments:
            return self._memtable.execute(query)
        event_aliases = [ref.alias for ref in query.tables if ref.table == "events"]
        if len(event_aliases) != 1 or query.order_by or query.limit is not None:
            # Partition-wise execution is only exact for the single-events-
            # alias shape every TBQL pattern compiles to; everything else runs
            # against the combined view.
            _, executor = self._combined_view()
            return executor.execute(query)
        return self._execute_partitioned(query, event_aliases[0])

    # -- statistics ------------------------------------------------------------

    def reset_scan_counters(self) -> None:
        self.segments_pruned = 0
        self.segments_scanned = 0

    def statistics(self) -> dict[str, Any]:
        """Per-table row/index stats plus segment-store health counters."""
        stats = self._memtable.statistics()
        sealed = sum(reader.rows("events") for reader in self._segments)
        stats["events"]["memtable_rows"] = stats["events"]["rows"]
        stats["events"]["rows"] += sealed
        stats["segments"] = {
            "count": len(self._segments),
            "sealed_event_rows": sealed,
            "segment_rows_threshold": self._segment_rows,
            "pruned": self.segments_pruned,
            "scanned": self.segments_scanned,
            "data_dir": str(self._data_dir),
        }
        return stats

    def __len__(self) -> int:
        return len(self._memtable) + sum(reader.rows("events") for reader in self._segments)

    # -- internal --------------------------------------------------------------

    def _execute_partitioned(self, query: SelectQuery, events_alias: str) -> QueryResult:
        low, high = range_lookups(query.filter_for_alias(events_alias)).get(
            "starttime", (None, None)
        )
        results: list[QueryResult] = []
        if len(self._memtable.table("events")):
            results.append(self._memtable.execute(query))
        for reader in self._segments:
            if not reader.overlaps_window(low, high):
                self.segments_pruned += 1
                continue
            self.segments_scanned += 1
            results.append(self._segment_executor(reader).execute(query))
        if not results:
            # Every partition pruned: run against the empty memtable so the
            # result still carries the query's column layout.
            return self._memtable.execute(query)
        columns = results[0].columns
        rows: list[tuple[Any, ...]] = []
        for result in results:
            rows.extend(result.rows)
        if query.distinct:
            rows = list(dict.fromkeys(rows))
        return QueryResult(columns=columns, rows=tuple(rows))

    def _segment_executor(self, reader: SegmentReader) -> QueryExecutor:
        executor = self._segment_executors.get(reader.name)
        if executor is None:
            tables = {
                "entities": self._memtable.table("entities"),
                "events": reader.table("events"),
            }
            executor = QueryExecutor(tables)
            self._segment_executors[reader.name] = executor
        return executor

    def _combined_view(self) -> tuple[dict[str, Table], QueryExecutor]:
        """Lazily materialize every event row into one indexed table."""
        if self._combined is None:
            combined = audit_table("events")
            for partition in self._event_partitions():
                combined.append_columns(partition.column_store(), len(partition))
            tables = {"entities": self._memtable.table("entities"), "events": combined}
            self._combined = (tables, QueryExecutor(tables))
        return self._combined

    def _invalidate_combined(self) -> None:
        self._combined = None


def _segment_index(name: str) -> int | None:
    prefix, _, suffix = name.partition("-")
    if prefix != "seg" or not suffix.isdigit():
        return None
    return int(suffix)


__all__ = ["DEFAULT_SEGMENT_ROWS", "SegmentedRelationalDatabase"]
