"""Audit-data loader: parsed traces → relational and graph backends.

ThreatRaptor stores each trace in both PostgreSQL (tables) and Neo4j (nodes
and edges) and applies Causality Preserved Reduction "to reduce the data size"
before storage.  :class:`AuditStore` bundles the two backends of this
reproduction behind one loading and statistics interface so the TBQL execution
engine can be handed a single object.  The two backends are the only copies
of the stored data: the store keeps no trace of its own, and ground-truth
labels stay with the traces the generators produce.

There is one loading path.  :meth:`AuditStore.append_batch` — the streaming
path :mod:`repro.streaming` uses — runs each micro-batch of events through an
:class:`~repro.auditing.reduction.IncrementalReducer` whose merge-window state
persists across batches, then hands the sealed events to both backends.
Events still awaiting a merge decision stay *pending* (not yet visible to
queries) until sealed by later batches or an explicit :meth:`AuditStore.flush`.
A whole-trace load (:meth:`AuditStore.load_trace`, the batch path the paper
demonstrates) is a stream with one batch: it replaces whatever the store held,
reduces the trace in one ``ingest`` plus ``flush``, and stores the result in
``(start_time, event_id)`` order through the same store step.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.auditing.entities import SystemEntity, entity_from_row
from repro.auditing.events import SystemEvent, event_from_row
from repro.auditing.reduction import IncrementalReducer, ReductionStats
from repro.auditing.trace import AuditTrace
from repro.errors import StorageError
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.relational.database import RelationalDatabase, validate_batch
from repro.storage.segment.database import DEFAULT_SEGMENT_ROWS, SegmentedRelationalDatabase


@dataclass
class LoadReport:
    """What happened during one trace load."""

    relational_rows: dict[str, int] = field(default_factory=dict)
    graph_counts: dict[str, int] = field(default_factory=dict)
    reduction: ReductionStats | None = None


@dataclass
class AppendReport:
    """What happened during one incremental append (or flush).

    Attributes:
        appended_entities: New entities stored by this call.
        appended_events: Events sealed and stored by this call.  With
            reduction enabled these are merged representatives, and events can
            seal in a *later* batch than the one that ingested them.
        stored_events: The sealed events themselves, for consumers (e.g. the
            standing-query monitor) that need the new data's time range.
        events_ingested: Raw events handed to this call before reduction.
        pending_events: Events still buffered by the incremental reducer.
    """

    appended_entities: int = 0
    appended_events: int = 0
    stored_events: list[SystemEvent] = field(default_factory=list)
    events_ingested: int = 0
    pending_events: int = 0


class AuditStore:
    """The combined storage component: relational + graph backends.

    Args:
        apply_reduction: Run Causality Preserved Reduction before loading.
        merge_window_ns: CPR merge window (see
            :class:`~repro.auditing.reduction.IncrementalReducer`).
        storage: ``"memory"`` (the in-memory relational store, the default) or
            ``"segments"`` (the durable
            :class:`~repro.storage.segment.database.SegmentedRelationalDatabase`).
        data_dir: Segment data directory.  Only meaningful with
            ``storage="segments"``; when omitted the store owns a temporary
            directory for its lifetime (durable across :meth:`reset`, not
            across processes).  Reopening a directory that already holds
            sealed segments rehydrates both backends from it.
        segment_rows: Memtable seal threshold for the segmented store.
    """

    def __init__(
        self,
        apply_reduction: bool = True,
        merge_window_ns: int | None = 10_000_000_000,
        storage: str = "memory",
        data_dir: str | Path | None = None,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
    ) -> None:
        if storage not in ("memory", "segments"):
            raise StorageError(f"unknown storage backend {storage!r}")
        self.storage = storage
        self._owned_data_dir: tempfile.TemporaryDirectory[str] | None = None
        self.relational: RelationalDatabase | SegmentedRelationalDatabase
        if storage == "segments":
            if data_dir is None:
                self._owned_data_dir = tempfile.TemporaryDirectory(prefix="segments-")
                data_dir = self._owned_data_dir.name
            self.data_dir: Path | None = Path(data_dir)
            self.relational = SegmentedRelationalDatabase(
                self.data_dir, segment_rows=segment_rows
            )
        else:
            self.data_dir = None
            self.relational = RelationalDatabase()
        self.graph = GraphDatabase()
        self._merge_window_ns = merge_window_ns
        self._incremental = IncrementalReducer(merge_window_ns) if apply_reduction else None
        self._generation = 0
        if storage == "segments":
            self._rehydrate_from_segments()

    def _rehydrate_from_segments(self) -> None:
        """Rebuild the graph from the rows a reopened data directory holds.

        Rows stream partition by partition into the graph; persisted rows are
        post-reduction, so the graph holds what the previous process stored.
        """
        assert isinstance(self.relational, SegmentedRelationalDatabase)
        self.graph.append_batch(
            (entity_from_row(row) for row in self.relational.table("entities").scan()),
            (event_from_row(row) for row in self.relational.event_rows()),
        )

    @property
    def generation(self) -> int:
        """Advances whenever the stored rows change: a load, a :meth:`reset`,
        or an append that stores at least one row.  Caches keyed on the
        store's contents compare it instead of the rows themselves."""
        return self._generation

    def reset(self) -> None:
        """Drop all stored data and incremental-reduction state."""
        self.relational.clear()
        self.graph.clear()
        if self._incremental is not None:
            self._incremental = IncrementalReducer(self._merge_window_ns)
        self._generation += 1

    def load_trace(self, trace: AuditTrace) -> LoadReport:
        """Load one audit trace into both backends.

        Loading **replaces** the store's contents, so calling
        :meth:`load_trace` twice leaves exactly the second trace stored; use
        :meth:`append_batch` to add to what is stored.  The trace is a stream
        with one batch: with reduction enabled it is reduced in one ``ingest``
        plus ``flush`` and stored in ``(start_time, event_id)`` order, matching
        the paper's deployment.  The store does not hold on to the trace.

        Raises:
            StorageError: as :meth:`append_batch`, checked against an empty
                store.  Nothing is written: the store keeps what it held.
        """
        entities, events = self._admit(trace.entities, trace.events, replacing=True)
        self.reset()
        report = LoadReport()
        if self._incremental is not None:
            events = self._incremental.ingest(events) + self._incremental.flush()
            events.sort(key=lambda e: (e.start_time, e.event_id))
            report.reduction = self._incremental.statistics()
        report.relational_rows, report.graph_counts = self._store(entities, events)
        return report

    def append_batch(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent]
    ) -> AppendReport:
        """Append one micro-batch of audit data to both backends.

        New entities are stored immediately; an entity id already stored, or
        repeated in the batch, keeps its first record.  Events pass through
        the incremental reducer first when reduction is enabled: only *sealed*
        events — those that can no longer absorb merges — are stored and
        reported; the rest stay pending until a later batch or :meth:`flush`
        seals them.

        Raises:
            StorageError: if an event id repeats within the batch, or names an
                event already stored or still pending in the reducer; or if an
                event's subject or object is neither stored nor in the batch;
                or (:class:`~repro.errors.SchemaError`) if a value does not fit
                the audit schema.  Nothing is written, the reducer is not
                touched and :attr:`generation` does not advance.
        """
        new_entities, event_list = self._admit(entities, events, replacing=False)
        report = AppendReport(events_ingested=len(event_list))
        if self._incremental is not None:
            event_list = self._incremental.ingest(event_list)
        self._report_increment(new_entities, event_list, report)
        return report

    def flush(self) -> AppendReport:
        """Seal and store every pending event (end of stream / on demand).

        With segmented storage this also seals the memtable to disk, so a
        flushed store is fully durable regardless of the seal threshold.
        """
        report = AppendReport()
        if self._incremental is not None:
            self._report_increment([], self._incremental.flush(), report)
        if isinstance(self.relational, SegmentedRelationalDatabase):
            self.relational.seal()
        return report

    def _admit(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent], replacing: bool
    ) -> tuple[list[SystemEntity], list[SystemEvent]]:
        """The batch's entities not yet stored (first record per id) and its
        events, or :class:`StorageError` before anything is written.  A
        value the audit schema refuses (say a float ``amount``) is a
        :class:`~repro.errors.SchemaError`, raised here rather than by a
        backend halfway through the write.

        ``replacing`` checks the batch against an empty store, as
        :meth:`load_trace` sees it after :meth:`reset`.  An audit event id
        names one record: stored twice, the reducer would merge the repeat
        into the original.  An event whose endpoint no entity names would be
        a dangling row in the relational table and an edge the graph refuses.
        """
        first: dict[int, SystemEntity] = {}
        for entity in entities:
            first.setdefault(entity.entity_id, entity)
        if replacing:  # after reset() the store holds no id
            stored_node = stored_edge = frozenset().__contains__
        else:
            stored_node, stored_edge = self.graph.has_node, self.graph.has_edge
        incremental = None if replacing else self._incremental
        event_list = list(events)
        seen: set[int] = set()
        for event in event_list:
            event_id = event.event_id
            if (
                event_id in seen
                or stored_edge(event_id)
                or (incremental is not None and incremental.is_pending(event_id))
            ):
                raise StorageError(f"duplicate audit event id {event_id}")
            seen.add(event_id)
            for entity_id in (event.subject_id, event.object_id):
                if entity_id not in first and not stored_node(entity_id):
                    raise StorageError(f"audit event {event_id}: unknown entity id {entity_id}")
        new_entities = [entity for entity_id, entity in first.items() if not stored_node(entity_id)]
        validate_batch(new_entities, event_list)
        return new_entities, event_list

    def _store(
        self, entities: list[SystemEntity], events: list[SystemEvent]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Write one batch to both backends; returns their row counts."""
        relational = self.relational.append_batch(entities, events)
        graph = self.graph.append_batch(entities, events)
        if relational["entities"] or relational["events"]:
            self._generation += 1
        return relational, graph

    def _report_increment(
        self, entities: list[SystemEntity], events: list[SystemEvent], report: AppendReport
    ) -> None:
        relational, _ = self._store(entities, events)
        report.appended_entities = relational["entities"]
        report.appended_events = relational["events"]
        report.stored_events = events
        report.pending_events = self.pending_events

    @property
    def pending_events(self) -> int:
        """Events buffered by the incremental reducer, not yet queryable."""
        return self._incremental.pending_count if self._incremental is not None else 0

    def statistics(self) -> dict[str, Any]:
        """Combined backend statistics."""
        return {
            "relational": self.relational.statistics(),
            "graph": self.graph.statistics(),
        }
