"""The continuous hunting service: ingestion + standing queries + alerts.

:class:`HuntingService` turns the one-shot ThreatRaptor pipeline into a
continuously running monitor.  It owns a
:class:`~repro.streaming.ingest.StreamIngestor` appending micro-batches into
the shared audit store and a :class:`~repro.streaming.monitor.QueryMonitor`
built over ``raptor.prepare_query`` — every registered hunt is prepared once
(a query the static-analysis gate rejects registers quarantined) and
re-executed after each batch, dispatching new matches to the configured alert
sinks.

Typical usage::

    raptor = ThreatRaptor()
    service = raptor.watch(report_text, name="figure2")
    service.add_sink(CallbackSink(lambda alert: print(alert.describe())))
    service.run(LogTailSource(path="audit.log"))
    print(service.statistics())

Crash safety (optional): give the service a
:class:`~repro.streaming.checkpoint.CheckpointStore` and a
:class:`~repro.streaming.journal.JournalSink` and it checkpoints its standing
state after every micro-batch while journaling each alert durably.  After a
crash, :meth:`HuntingService.resume` rebuilds the monitor from the last
checkpoint, merges the journal's already-delivered signatures, and re-runs the
stream — replayed batches re-match old alerts but none are re-emitted, so the
journal ends byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable

from repro.streaming.alerts import Alert, AlertSink
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.ingest import IngestedBatch, StreamIngestor
from repro.streaming.journal import JournalSink
from repro.streaming.monitor import QueryMonitor, StandingQuery
from repro.streaming.source import EventSource, StreamRecord
from repro.tbql.ast import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.pipeline import ThreatRaptor


class HuntingService:
    """Continuous hunting over a stream of audit events.

    Args:
        raptor: The pipeline facade providing storage, synthesis and query
            execution.  A default-configured one is built when omitted.
        batch_size: Records per ingestion micro-batch.
        sinks: Initial alert sinks; more can be added with :meth:`add_sink`.
        checkpoint_store: When given, the full standing state (hunt registry,
            dedup signatures, ingest counters, source offset) is checkpointed
            atomically after every micro-batch and on hunt registration.
        journal: Durable alert journal; appended to the sinks and consulted by
            :meth:`resume` for exactly-once delivery across restarts.
        quarantine_after: Consecutive evaluation failures after which the
            monitor quarantines a hunt instead of letting it keep crashing
            every batch.
    """

    def __init__(
        self,
        raptor: "ThreatRaptor | None" = None,
        batch_size: int = 256,
        sinks: Iterable[AlertSink] = (),
        checkpoint_store: CheckpointStore | None = None,
        journal: JournalSink | None = None,
        quarantine_after: int = 3,
    ) -> None:
        if raptor is None:
            from repro.core.pipeline import ThreatRaptor

            raptor = ThreatRaptor()
        self._raptor = raptor
        self._batch_size = batch_size
        self._ingestor = StreamIngestor(raptor.store, batch_size=batch_size)
        self._monitor = QueryMonitor(raptor.prepare_query, quarantine_after=quarantine_after)
        self._sinks: list[AlertSink] = list(sinks)
        self._checkpoint_store = checkpoint_store
        self._journal = journal
        if journal is not None and journal not in self._sinks:
            self._sinks.append(journal)
        self._source: EventSource | None = None
        self._resumed = False
        self._started = time.perf_counter()

    # -- configuration -------------------------------------------------------

    @property
    def raptor(self) -> "ThreatRaptor":
        return self._raptor

    @property
    def hunts(self) -> list[StandingQuery]:
        return self._monitor.queries

    @property
    def journal(self) -> JournalSink | None:
        return self._journal

    @property
    def checkpoint_store(self) -> CheckpointStore | None:
        return self._checkpoint_store

    def add_sink(self, sink: AlertSink) -> "HuntingService":
        """Add one alert destination; returns ``self`` for chaining."""
        self._sinks.append(sink)
        return self

    def register_hunt(
        self,
        name: str,
        report: str | None = None,
        query: Query | str | None = None,
        provenance: Iterable[str] = (),
        canonical_key: str | None = None,
    ) -> StandingQuery:
        """Register a standing hunt from an OSCTI report or a TBQL query.

        Exactly one of ``report`` (OSCTI text, synthesized into a TBQL query on
        registration — the paper's pipeline) or ``query`` (hand-written TBQL
        source or AST) must be given.  ``provenance`` names the originating
        OSCTI report ids; every alert the hunt raises carries them.
        """
        if (report is None) == (query is None):
            raise ValueError("register_hunt needs exactly one of report= or query=")
        if report is not None:
            extraction = self._raptor.extract_behavior_graph(report)
            query = self._raptor.synthesize_query(extraction.graph)
        assert query is not None
        standing = self._monitor.register(
            name, query, provenance=provenance, canonical_key=canonical_key
        )
        # A hunt registration is durable state: losing it on crash would
        # silently stop the hunt instead of resuming it.
        self.checkpoint()
        return standing

    def hunt(self, name: str) -> StandingQuery | None:
        """The registered hunt called ``name``, or ``None``."""
        return self._monitor.get(name)

    def hunt_by_canonical_key(self, canonical_key: str) -> StandingQuery | None:
        """The registered hunt carrying ``canonical_key``, if any."""
        return self._monitor.by_canonical_key(canonical_key)

    def extend_hunt_provenance(self, name: str, report_ids: Iterable[str]) -> StandingQuery:
        """Append report ids to a hunt's provenance (corpus dedup bookkeeping)."""
        return self._monitor.extend_provenance(name, report_ids)

    def reinstate_hunt(self, name: str) -> StandingQuery:
        """Clear a hunt's quarantine so the next batch evaluates it again."""
        return self._monitor.reinstate(name)

    # -- processing ----------------------------------------------------------

    def process_batch(self, records: Iterable[StreamRecord]) -> list[Alert]:
        """Ingest one micro-batch and re-evaluate every standing hunt."""
        batch = self._ingestor.ingest(records)
        return self._evaluate(batch)

    def run(
        self,
        source: EventSource | Iterable[StreamRecord],
        max_batches: int | None = None,
        flush: bool = True,
    ) -> list[Alert]:
        """Consume a source to exhaustion, then flush pending events.

        Returns every alert raised during the run.  Follow-mode sources never
        exhaust on their own; bound them with ``max_batches`` or the source's
        own ``max_events``.  ``flush=False`` stops exactly at the batch
        boundary without sealing pending events — the crash-recovery harness
        uses it to model a process killed mid-stream.
        """
        if isinstance(source, EventSource):
            self._source = source
        alerts: list[Alert] = []
        for processed, batch in enumerate(self._ingestor.ingest_stream(iter(source)), start=1):
            alerts.extend(self._evaluate(batch))
            if max_batches is not None and processed >= max_batches:
                break
        if flush:
            alerts.extend(self.flush())
        return alerts

    def flush(self) -> list[Alert]:
        """Seal pending (merge-open) events and run a final evaluation."""
        batch = self._ingestor.flush()
        if not batch.report.stored_events:
            return []
        return self._evaluate(batch)

    def _evaluate(self, batch: IngestedBatch) -> list[Alert]:
        if not batch.report.stored_events:
            return []
        alerts = self._monitor.evaluate(batch.index, batch.watermark_start_ns)
        for alert in alerts:
            for sink in self._sinks:
                sink.emit(alert)
        # Checkpoint *after* the journal has the batch's alerts: on replay,
        # anything the checkpoint misses is still covered by the journal.
        self.checkpoint()
        return alerts

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint_state(self) -> dict[str, Any]:
        """The full snapshot a checkpoint persists (JSON-serialisable)."""
        ingest = self._ingestor.statistics
        state: dict[str, Any] = {
            "batch_size": self._batch_size,
            "ingest": {
                "batches": ingest.batches,
                "events_ingested": ingest.events_ingested,
                "events_stored": ingest.events_stored,
                "entities_stored": ingest.entities_stored,
            },
            "hunts": self._monitor.snapshot_state(),
        }
        if self._journal is not None:
            state["journal_next_seq"] = self._journal.next_seq
        if self._source is not None:
            state["source"] = self._source.checkpoint_state()
        return state

    def checkpoint(self) -> None:
        """Persist :meth:`checkpoint_state` when a store is configured."""
        if self._checkpoint_store is not None:
            self._checkpoint_store.save(self.checkpoint_state())

    @classmethod
    def resume(
        cls,
        checkpoint_store: CheckpointStore,
        raptor: "ThreatRaptor | None" = None,
        batch_size: int = 256,
        sinks: Iterable[AlertSink] = (),
        journal: JournalSink | None = None,
        quarantine_after: int = 3,
    ) -> "HuntingService":
        """Rebuild a hunting service from its last checkpoint.

        Loads the newest restorable snapshot (falling back to the previous
        one if the latest write was torn), re-registers every hunt with its
        provenance and canonical key, restores dedup signatures and counters,
        and merges the journal's recovered signatures so replayed matches are
        never re-delivered.  With no checkpoint on disk this degrades to a
        fresh service wired to the same store — first boot and recovery share
        one code path.

        The audit store is in-memory, so the caller re-runs the stream from
        the beginning (or from the checkpointed source offset when the
        underlying storage is durable); restored signatures make the replay
        emit exactly the alerts the crash lost.
        """
        state = checkpoint_store.load()
        service = cls(
            raptor=raptor,
            batch_size=int(state["batch_size"]) if state else batch_size,
            sinks=sinks,
            checkpoint_store=checkpoint_store,
            journal=journal,
            quarantine_after=quarantine_after,
        )
        if state is not None:
            service._monitor.restore_state(state.get("hunts", ()))
            service._resumed = True
        if journal is not None:
            for hunt_name, signatures in journal.signatures().items():
                standing = service._monitor.get(hunt_name)
                if standing is not None:
                    standing.absorb_signatures(signatures)
        return service

    @property
    def resumed(self) -> bool:
        """True when this service was rebuilt from a checkpoint."""
        return self._resumed

    # -- statistics ----------------------------------------------------------

    def matched_event_ids(self, name: str) -> set[int]:
        """Audit event ids matched so far by the hunt called ``name``."""
        return self._monitor.query(name).matched_event_ids()

    def statistics(self) -> dict[str, Any]:
        """Ingest throughput, per-hunt counters, and resilience accounting."""
        ingest = self._ingestor.statistics
        resilience: dict[str, Any] = {"resumed": self._resumed}
        if self._checkpoint_store is not None:
            resilience["checkpoint"] = self._checkpoint_store.statistics()
        if self._journal is not None:
            resilience["journal"] = self._journal.statistics()
        if self._source is not None:
            source_stats: dict[str, Any] = {}
            for counter in ("rotations", "truncations"):
                value = getattr(self._source, counter, None)
                if value is not None:
                    source_stats[counter] = value
            parse_stats = getattr(self._source, "statistics", None)
            if parse_stats is not None:
                source_stats["records_torn"] = parse_stats.records_torn
                source_stats["records_skipped"] = parse_stats.records_skipped
            retry_stats = getattr(self._source, "retry_stats", None)
            if retry_stats is not None:
                source_stats["retry"] = retry_stats.as_dict()
            if source_stats:
                resilience["source"] = source_stats
        return {
            "uptime_seconds": time.perf_counter() - self._started,
            "ingest": {
                "batches": ingest.batches,
                "events_ingested": ingest.events_ingested,
                "events_stored": ingest.events_stored,
                "entities_stored": ingest.entities_stored,
                "seconds": ingest.seconds,
                "events_per_second": ingest.events_per_second,
                "pending_events": self._raptor.store.pending_events,
            },
            "hunts": {
                standing.name: {
                    "evaluations": standing.evaluations,
                    "eval_seconds": standing.eval_seconds,
                    "alerts": standing.alerts_raised,
                    "matched_events": len(standing.matched_event_ids()),
                    "errors": standing.errors,
                    "last_error": standing.last_error,
                    "status": standing.status,
                }
                for standing in self._monitor.queries
            },
            "resilience": resilience,
        }


__all__ = ["HuntingService"]
