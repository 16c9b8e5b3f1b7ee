"""Micro-batched incremental ingestion into the audit store.

:class:`StreamIngestor` is the bridge between an event source and the
:class:`~repro.storage.loader.AuditStore`: it groups streamed records into
micro-batches and appends each batch into both storage backends through
:meth:`AuditStore.append_batch` — which keeps one record per entity id and runs
the events through the incremental Causality Preserved Reduction, so the
stored data matches what a whole-trace load would have produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.storage.loader import AppendReport, AuditStore
from repro.streaming.source import StreamRecord, iter_batches


@dataclass
class IngestStatistics:
    """Cumulative counters over everything an ingestor has processed."""

    batches: int = 0
    events_ingested: int = 0
    events_stored: int = 0
    entities_stored: int = 0
    seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        """Batched-append throughput (0.0 before any work)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.events_ingested / self.seconds


@dataclass
class IngestedBatch:
    """One processed micro-batch: the store's report plus batch metadata.

    Attributes:
        index: 0-based batch sequence number.
        report: What the store actually appended (after reduction).
        seconds: Wall-clock time spent appending the batch.
    """

    index: int
    report: AppendReport
    seconds: float = 0.0

    @property
    def watermark_start_ns(self) -> int | None:
        """Earliest start time among the events this batch made queryable.

        Standing queries use this as the lower bound of their re-evaluation
        window: any match involving this batch's data must contain at least
        one event starting at or after it.  ``None`` when the batch sealed no
        events.
        """
        if not self.report.stored_events:
            return None
        return min(event.start_time for event in self.report.stored_events)


class StreamIngestor:
    """Appends micro-batches of streamed records into an audit store.

    Args:
        store: The combined audit store to append into.
        batch_size: Records per micro-batch when consuming a source.
    """

    def __init__(self, store: AuditStore, batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        self._store = store
        self._batch_size = batch_size
        self.statistics = IngestStatistics()

    @property
    def store(self) -> AuditStore:
        return self._store

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def ingest(self, records: Iterable[StreamRecord]) -> IngestedBatch:
        """Append one micro-batch of records into both backends."""
        started = time.perf_counter()
        record_list = list(records)
        entities = []
        for record in record_list:
            entities.extend(record.entities())
        report = self._store.append_batch(entities, [record.event for record in record_list])
        elapsed = time.perf_counter() - started

        self.statistics.batches += 1
        self.statistics.events_ingested += report.events_ingested
        self.statistics.events_stored += report.appended_events
        self.statistics.entities_stored += report.appended_entities
        self.statistics.seconds += elapsed
        return IngestedBatch(index=self.statistics.batches - 1, report=report, seconds=elapsed)

    def ingest_stream(self, records: Iterable[StreamRecord]) -> Iterator[IngestedBatch]:
        """Consume a record stream, yielding one :class:`IngestedBatch` each."""
        for batch in iter_batches(records, self._batch_size):
            yield self.ingest(batch)

    def flush(self) -> IngestedBatch:
        """Seal every pending (merge-open) event and append it to the store.

        A flush that seals nothing does not count as a batch.
        """
        started = time.perf_counter()
        report = self._store.flush()
        elapsed = time.perf_counter() - started
        if report.appended_events:
            self.statistics.batches += 1
            self.statistics.events_stored += report.appended_events
            self.statistics.seconds += elapsed
        return IngestedBatch(index=self.statistics.batches - 1, report=report, seconds=elapsed)


__all__ = ["IngestStatistics", "IngestedBatch", "StreamIngestor"]
