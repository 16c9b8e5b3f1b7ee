"""Durable, time-partitioned drop-in for :class:`RelationalDatabase`.

:class:`SegmentedRelationalDatabase` keeps the exact query surface of the
in-memory relational store — ``execute(SelectQuery)``, ``plan``, ``explain``,
bulk and incremental loading — but persists events to disk:

* Fresh rows land in an in-memory **memtable** (a plain indexed
  :class:`~repro.storage.relational.table.Table`); once it reaches
  ``segment_rows`` events it is **sealed** into an immutable on-disk segment
  (:func:`~repro.storage.segment.segment.write_segment`) and published through
  the atomic manifest.
* ``SelectQuery`` execution **prunes** sealed segments whose min/max
  ``starttime`` footer stats cannot overlap the query's time window, then
  delegates each surviving segment (and the memtable) to the existing
  vectorized column kernels and concatenates the partial results.  This is
  exact for TBQL pattern queries, which reference the ``events`` table exactly
  once: segments partition the events disjointly, entities are fully
  memory-resident, so each joined output row is produced by exactly one
  partition.  Queries outside that shape (no or multiple events aliases,
  ``ORDER BY``, ``LIMIT``) fall back to a lazily built combined view.
* Entities are small (bounded by distinct processes/files/hosts, not by event
  volume), so they stay fully memory-resident and are additionally persisted
  with each sealed segment; reopening a data directory rebuilds the entity
  table and leaves event segments lazily mmapped until a query touches them.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Iterable

from repro.auditing.entities import SystemEntity
from repro.auditing.events import SystemEvent
from repro.auditing.trace import AuditTrace
from repro.errors import QueryError, SegmentError
from repro.storage.relational.database import (
    DEFAULT_HASH_INDEXES,
    DEFAULT_SORTED_INDEXES,
    ENTITY_SCHEMA,
    EVENT_SCHEMA,
)
from repro.storage.relational.executor import ExecutionPlan, QueryExecutor
from repro.storage.relational.expression import range_lookups
from repro.storage.relational.query import QueryResult, SelectQuery
from repro.storage.relational.table import Table
from repro.storage.segment.manifest import SegmentManifest
from repro.storage.segment.segment import SegmentReader, write_segment

#: Default number of memtable events that triggers a seal.
DEFAULT_SEGMENT_ROWS = 4096

_SCHEMAS = {"entities": ENTITY_SCHEMA, "events": EVENT_SCHEMA}


def _indexed_table(name: str) -> Table:
    table = Table(_SCHEMAS[name])
    for column in DEFAULT_HASH_INDEXES[name]:
        table.create_hash_index(column)
    for column in DEFAULT_SORTED_INDEXES[name]:
        table.create_sorted_index(column)
    return table


class SegmentedRelationalDatabase:
    """On-disk segmented relational store with the in-memory store's API.

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
        self._tables: dict[str, Table] = {
            "entities": _indexed_table("entities"),
            "events": _indexed_table("events"),
        }
        self._executor = QueryExecutor(self._tables)
        self._entries: list[dict[str, Any]] = []
        self._segments: list[SegmentReader] = []
        self._segment_executors: dict[str, QueryExecutor] = {}
        self._unsealed_entities: list[dict[str, Any]] = []
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
            reader = SegmentReader(
                directory,
                entry,
                _SCHEMAS,
                hash_indexes=DEFAULT_HASH_INDEXES,
                sorted_indexes=DEFAULT_SORTED_INDEXES,
            )
            self._entries.append(dict(entry))
            self._segments.append(reader)
            index = _segment_index(name)
            if index is not None:
                self._next_segment = max(self._next_segment, index + 1)
        # Entities are memory-resident: rebuild the table from every sealed
        # segment's entity rows (eager and cheap — entity cardinality is tiny
        # next to event volume).
        entities = self._tables["entities"]
        seen: set[Any] = set()
        for reader in self._segments:
            for row in reader.table("entities").scan():
                if row["id"] in seen:
                    continue
                seen.add(row["id"])
                entities.insert(row)
        # Rebuilt rows are already durable; only rows newer than the last
        # seal belong in _unsealed_entities.
        self._unsealed_entities = []

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
        self._unsealed_entities = []
        self._next_segment = 0
        self._tables["entities"] = _indexed_table("entities")
        self._tables["events"] = _indexed_table("events")
        self._invalidate_combined()

    # -- loading -------------------------------------------------------------

    def load_entities(self, entities: Iterable[SystemEntity]) -> int:
        rows = [entity.to_row() for entity in entities]
        self._tables["entities"].insert_many(rows)
        self._unsealed_entities.extend(rows)
        return len(rows)

    def load_events(self, events: Iterable[SystemEvent]) -> int:
        # Insert in seal-threshold chunks rather than all at once: traces
        # arrive in collection (≈time) order, so sealing as the memtable
        # fills is what makes segments time-partitioned and prunable.
        count = 0
        memtable = self._tables["events"]
        batch: list[dict[str, Any]] = []
        for event in events:
            batch.append(event.to_row())
            if len(memtable) + len(batch) >= self._segment_rows:
                count += memtable.insert_many(batch)
                batch = []
                self.seal()
                memtable = self._tables["events"]
        if batch:
            count += memtable.insert_many(batch)
        self._invalidate_combined()
        self._maybe_seal()
        return count

    def load_trace(self, trace: AuditTrace) -> dict[str, int]:
        return {
            "entities": self.load_entities(trace.entities),
            "events": self.load_events(trace.events),
        }

    # -- incremental loading ---------------------------------------------------

    def has_entity(self, entity_id: int) -> bool:
        table = self._tables["entities"]
        return next(table.lookup_equal("id", entity_id), None) is not None

    def append_entities(self, entities: Iterable[SystemEntity]) -> int:
        count = 0
        for entity in entities:
            if not self.has_entity(entity.entity_id):
                row = entity.to_row()
                self._tables["entities"].insert(row)
                self._unsealed_entities.append(row)
                count += 1
        return count

    def append_events(self, events: Iterable[SystemEvent]) -> int:
        return self.load_events(events)

    def append_batch(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent]
    ) -> dict[str, int]:
        return {
            "entities": self.append_entities(entities),
            "events": self.append_events(events),
        }

    # -- sealing ---------------------------------------------------------------

    @property
    def memtable_events(self) -> int:
        """Unsealed (memory-only) event rows."""
        return len(self._tables["events"])

    @property
    def sealed_segments(self) -> int:
        return len(self._segments)

    @property
    def segment_readers(self) -> tuple[SegmentReader, ...]:
        """The live sealed-segment readers, oldest first."""
        return tuple(self._segments)

    def _maybe_seal(self) -> None:
        if len(self._tables["events"]) >= self._segment_rows:
            self.seal()

    def seal(self) -> str | None:
        """Seal the memtable into a new on-disk segment; returns its name.

        No-op (returns ``None``) when there is nothing unsealed.  The segment
        directory is fully written and fsynced before the manifest publish
        makes it visible, so a crash at any point leaves either the previous
        manifest (new directory = removable orphan) or the new one.
        """
        memtable = self._tables["events"]
        if not len(memtable) and not self._unsealed_entities:
            return None
        name = f"seg-{self._next_segment:05d}"
        event_rows = list(memtable.scan())
        tables = {
            "events": (
                EVENT_SCHEMA,
                {
                    column: [row[column] for row in event_rows]
                    for column in EVENT_SCHEMA.column_names()
                },
            ),
            "entities": (
                ENTITY_SCHEMA,
                {
                    # Entity rows arrive sparse (per-type attributes only);
                    # absent columns are NULL, as in the normalized table.
                    column: [row.get(column) for row in self._unsealed_entities]
                    for column in ENTITY_SCHEMA.column_names()
                },
            ),
        }
        entry = write_segment(self._data_dir, name, tables)
        self._entries.append(entry)
        self._manifest.save(self._entries)
        self._segments.append(
            SegmentReader(
                self._data_dir / name,
                entry,
                _SCHEMAS,
                hash_indexes=DEFAULT_HASH_INDEXES,
                sorted_indexes=DEFAULT_SORTED_INDEXES,
            )
        )
        self._next_segment += 1
        self._tables["events"] = _indexed_table("events")
        self._unsealed_entities = []
        self._invalidate_combined()
        return name

    # -- querying --------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Access one audit table by name (``events`` spans every segment).

        Raises:
            QueryError: for unknown table names.
        """
        if name == "entities":
            return self._tables["entities"]
        if name == "events":
            if not self._segments:
                return self._tables["events"]
            tables, _ = self._combined_view()
            return tables["events"]
        raise QueryError(f"unknown table {name!r}")

    def execute(self, query: SelectQuery) -> QueryResult:
        """Execute a select-project-join query across memtable and segments."""
        if not self._segments:
            return self._executor.execute(query)
        event_aliases = [ref.alias for ref in query.tables if ref.table == "events"]
        if len(event_aliases) != 1 or query.order_by or query.limit is not None:
            # Partition-wise execution is only exact for the single-events-
            # alias shape every TBQL pattern compiles to; everything else runs
            # against the combined view.
            _, executor = self._combined_view()
            return executor.execute(query)
        return self._execute_partitioned(query, event_aliases[0])

    def plan(self, query: SelectQuery) -> ExecutionPlan:
        """Plan a query (against the memtable's statistics) without executing."""
        return self._executor.plan(query)

    def explain(self, query: SelectQuery) -> list[str]:
        """EXPLAIN-style plan description."""
        return self._executor.explain(query)

    # -- statistics ------------------------------------------------------------

    def reset_scan_counters(self) -> None:
        self.segments_pruned = 0
        self.segments_scanned = 0

    def statistics(self) -> dict[str, Any]:
        """Per-table row/index stats plus segment-store health counters."""
        stats = {name: table.statistics() for name, table in self._tables.items()}
        sealed = sum(reader.rows("events") for reader in self._segments)
        stats["events"]["rows"] += sealed
        stats["events"]["memtable_rows"] = len(self._tables["events"])
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
        return (
            len(self._tables["entities"])
            + len(self._tables["events"])
            + sum(reader.rows("events") for reader in self._segments)
        )

    # -- internal --------------------------------------------------------------

    def _execute_partitioned(self, query: SelectQuery, events_alias: str) -> QueryResult:
        low, high = range_lookups(query.filter_for_alias(events_alias)).get(
            "starttime", (None, None)
        )
        results: list[QueryResult] = []
        if len(self._tables["events"]):
            results.append(self._executor.execute(query))
        for reader in self._segments:
            if not reader.overlaps_window(low, high):
                self.segments_pruned += 1
                continue
            self.segments_scanned += 1
            results.append(self._segment_executor(reader).execute(query))
        if not results:
            # Every partition pruned: run against the empty memtable so the
            # result still carries the query's column layout.
            return self._executor.execute(query)
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
                "entities": self._tables["entities"],
                "events": reader.table("events"),
            }
            executor = QueryExecutor(tables)
            self._segment_executors[reader.name] = executor
        return executor

    def _combined_view(self) -> tuple[dict[str, Table], QueryExecutor]:
        """Lazily materialize every event row into one indexed table."""
        if self._combined is None:
            combined = _indexed_table("events")
            for reader in self._segments:
                combined.insert_many(reader.table("events").scan())
            combined.insert_many(self._tables["events"].scan())
            tables = {"entities": self._tables["entities"], "events": combined}
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
