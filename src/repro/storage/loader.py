"""Audit-data loader: parsed traces → relational and graph backends.

ThreatRaptor stores each trace in both PostgreSQL (tables) and Neo4j (nodes
and edges) and applies Causality Preserved Reduction "to reduce the data size"
before storage.  :class:`AuditStore` bundles the two backends of this
reproduction behind one loading and statistics interface so the TBQL execution
engine can be handed a single object.

Two loading modes are supported:

* **whole-trace loads** (:meth:`AuditStore.load_trace`) — the batch path the
  paper demonstrates.  Loading replaces whatever the store held before, so
  repeated loads are well-defined;
* **incremental appends** (:meth:`AuditStore.append_batch`) — the streaming
  path used by :mod:`repro.streaming`.  Micro-batches of events are run
  through an :class:`~repro.auditing.reduction.IncrementalReducer` whose
  merge-window state persists across batches, so the stored event set matches
  what one whole-trace reduction would have produced.  Events still awaiting a
  merge decision stay *pending* (not yet visible to queries) until sealed by
  later batches or an explicit :meth:`AuditStore.flush`.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.auditing.entities import SystemEntity, entity_from_row
from repro.auditing.events import SystemEvent, event_from_row
from repro.auditing.reduction import CausalityPreservedReducer, ReductionStats
from repro.auditing.trace import AuditTrace
from repro.errors import StorageError
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.relational.database import RelationalDatabase
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
            :class:`~repro.auditing.reduction.CausalityPreservedReducer`).
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
        self._apply_reduction = apply_reduction
        self._reducer = CausalityPreservedReducer(merge_window_ns=merge_window_ns)
        self._incremental = self._reducer.incremental() if apply_reduction else None
        self._loaded_trace: AuditTrace | None = None
        self._owns_loaded_trace = False
        self._known_entity_ids: set[int] = set()
        if storage == "segments":
            self._rehydrate_from_segments()

    def _rehydrate_from_segments(self) -> None:
        """Rebuild in-memory state from rows a reopened data directory holds.

        Persisted rows are post-reduction, so the rehydrated trace is the
        reduced trace the previous process stored; the malicious-event ground
        truth is not part of the audit schema and does not survive restarts.
        """
        assert isinstance(self.relational, SegmentedRelationalDatabase)
        entity_rows = list(self.relational.table("entities").scan())
        event_rows = list(self.relational.table("events").scan())
        if not entity_rows and not event_rows:
            return
        entities = [entity_from_row(row) for row in entity_rows]
        events = [event_from_row(row) for row in event_rows]
        host = entities[0].host if entities else "localhost"
        trace = AuditTrace(host=host, entities=entities, events=events)
        self.graph.load_trace(trace)
        self._loaded_trace = trace
        self._owns_loaded_trace = True
        self._known_entity_ids = {entity.entity_id for entity in entities}

    def reset(self) -> None:
        """Drop all stored data and incremental-reduction state."""
        self.relational.clear()
        self.graph.clear()
        if self._apply_reduction:
            self._incremental = self._reducer.incremental()
        self._loaded_trace = None
        self._owns_loaded_trace = False
        self._known_entity_ids.clear()

    # -- whole-trace loading -------------------------------------------------

    def load_trace(self, trace: AuditTrace, append: bool = False) -> LoadReport:
        """Load one audit trace into both backends.

        By default loading **replaces** the store's contents, so calling
        :meth:`load_trace` twice leaves exactly the second trace stored.  Pass
        ``append=True`` to add the trace to what is already stored instead
        (the incremental path :mod:`repro.streaming` builds on).

        When reduction is enabled the reduced trace is what gets stored (and
        what :attr:`loaded_trace` returns), matching the paper's deployment.
        """
        if append:
            appended = self.append_batch(
                trace.entities, trace.events, malicious_event_ids=trace.malicious_event_ids
            )
            return LoadReport(
                relational_rows={
                    "entities": appended.appended_entities,
                    "events": appended.appended_events,
                },
                graph_counts={
                    "nodes": appended.appended_entities,
                    "edges": appended.appended_events,
                },
                reduction=(
                    self._incremental.statistics() if self._incremental is not None else None
                ),
            )

        self.reset()
        report = LoadReport()
        to_load = trace
        if self._apply_reduction:
            to_load, report.reduction = self._reducer.reduce(trace)
        report.relational_rows = self.relational.load_trace(to_load)
        report.graph_counts = self.graph.load_trace(to_load)
        self._loaded_trace = to_load
        self._owns_loaded_trace = to_load is not trace
        self._known_entity_ids = {entity.entity_id for entity in to_load.entities}
        return report

    # -- incremental loading -------------------------------------------------

    def append_batch(
        self,
        entities: Iterable[SystemEntity],
        events: Iterable[SystemEvent],
        malicious_event_ids: Iterable[int] = (),
    ) -> AppendReport:
        """Append one micro-batch of audit data to both backends.

        New entities are stored immediately (deduplicated against earlier
        batches by id).  Events pass through the incremental reducer first when
        reduction is enabled: only *sealed* events — those that can no longer
        absorb merges — are stored and reported; the rest stay pending until a
        later batch or :meth:`flush` seals them.
        """
        report = AppendReport()
        new_entities = [
            entity for entity in entities if entity.entity_id not in self._known_entity_ids
        ]
        event_list = list(events)
        report.events_ingested = len(event_list)

        malicious = set(malicious_event_ids)
        if self._incremental is not None:
            sealed = self._incremental.ingest(event_list, malicious)
            stored_events = [item.event for item in sealed]
            stored_malicious = {item.event.event_id for item in sealed if item.malicious}
            report.pending_events = self._incremental.pending_count
        else:
            stored_events = event_list
            stored_malicious = {e.event_id for e in event_list if e.event_id in malicious}

        self._store_increment(new_entities, stored_events, stored_malicious, report)
        return report

    def flush(self) -> AppendReport:
        """Seal and store every pending event (end of stream / on demand).

        With segmented storage this also seals the memtable to disk, so a
        flushed store is fully durable regardless of the seal threshold.
        """
        report = AppendReport()
        if self._incremental is not None:
            sealed = self._incremental.flush()
            self._store_increment(
                [],
                [item.event for item in sealed],
                {item.event.event_id for item in sealed if item.malicious},
                report,
            )
        if isinstance(self.relational, SegmentedRelationalDatabase):
            self.relational.seal()
        return report

    def _store_increment(
        self,
        new_entities: list[SystemEntity],
        stored_events: list[SystemEvent],
        stored_malicious: set[int],
        report: AppendReport,
    ) -> None:
        relational = self.relational.append_batch(new_entities, stored_events)
        self.graph.append_batch(new_entities, stored_events)
        report.appended_entities = relational["entities"]
        report.appended_events = relational["events"]
        report.stored_events = stored_events
        if self._incremental is not None:
            report.pending_events = self._incremental.pending_count
        self._known_entity_ids.update(entity.entity_id for entity in new_entities)

        # Accumulate the (reduced) stored data into the held trace.  When the
        # current trace is a caller's object (reduction disabled batch load),
        # copy it first so appends never mutate caller-owned data.
        if self._loaded_trace is None:
            self._loaded_trace = AuditTrace(host=new_entities[0].host if new_entities else "localhost")
            self._owns_loaded_trace = True
        elif not self._owns_loaded_trace:
            previous = self._loaded_trace
            self._loaded_trace = AuditTrace(
                host=previous.host,
                entities=list(previous.entities),
                events=list(previous.events),
                malicious_event_ids=set(previous.malicious_event_ids),
            )
            self._owns_loaded_trace = True
        self._loaded_trace.add_entities(new_entities)
        self._loaded_trace.add_events(stored_events)
        self._loaded_trace.malicious_event_ids.update(stored_malicious)

    @property
    def pending_events(self) -> int:
        """Events buffered by the incremental reducer, not yet queryable."""
        return self._incremental.pending_count if self._incremental is not None else 0

    @property
    def loaded_trace(self) -> AuditTrace | None:
        """The (possibly reduced) trace currently held by the store.

        On the append path this convenience copy grows with every sealed
        event, in addition to the backends' own storage — acceptable for the
        bounded streams the tests and benchmarks replay, but an unbounded
        ``--follow`` deployment that must not keep a third copy should read
        the backends directly instead.
        """
        return self._loaded_trace

    def statistics(self) -> dict[str, Any]:
        """Combined backend statistics."""
        return {
            "relational": self.relational.statistics(),
            "graph": self.graph.statistics(),
        }
