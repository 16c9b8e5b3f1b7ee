"""Tests for micro-batched incremental ingestion, incl. CPR equivalence."""

from __future__ import annotations

import pytest

from repro.auditing.workload.attacks import DataLeakageAttack, PasswordCrackingAttack
from repro.auditing.workload.benign import NoisyFileServerWorkload
from repro.auditing.workload.generator import HostSimulator
from repro.storage.loader import AuditStore
from repro.streaming.ingest import StreamIngestor
from repro.streaming.source import ReplaySource, iter_batches


@pytest.fixture(scope="module")
def simulation():
    """A workload with heavy same-edge repetition so CPR actually merges."""
    simulator = (
        HostSimulator(seed=19, benign_scale=0.4)
        .add_default_benign()
        .add_attack(PasswordCrackingAttack())
        .add_attack(DataLeakageAttack())
    )
    simulator.add_benign(NoisyFileServerWorkload(sessions=3, operations_per_session=50))
    return simulator.run()


def _stored_events(store: AuditStore) -> set[tuple[int, int, int, int]]:
    return {
        (row["id"], row["starttime"], row["endtime"], row["amount"])
        for row in store.relational.table("events").scan()
    }


def _stream_into(store: AuditStore, simulation, batch_size: int) -> StreamIngestor:
    ingestor = StreamIngestor(store, batch_size=batch_size)
    for batch in iter_batches(ReplaySource(simulation).records(), batch_size):
        ingestor.ingest(batch)
    ingestor.flush()
    return ingestor


class TestIncrementalCPREquivalence:
    """Streamed batches must reduce to the same event set as one batch load."""

    @pytest.mark.parametrize("batch_size", [7, 64, 100_000])
    def test_same_events_as_whole_trace_reduction(self, simulation, batch_size):
        streamed = AuditStore()
        _stream_into(streamed, simulation, batch_size)
        batch = AuditStore()
        batch.load_trace(simulation.trace)

        assert _stored_events(streamed) == _stored_events(batch)
        assert streamed.graph.edge_count() == batch.graph.edge_count()

    def test_reduction_actually_merged_events(self, simulation):
        streamed = AuditStore()
        ingestor = _stream_into(streamed, simulation, batch_size=50)
        assert ingestor.statistics.events_stored < ingestor.statistics.events_ingested

    def test_backends_consistent_after_streaming(self, simulation):
        store = AuditStore()
        _stream_into(store, simulation, batch_size=64)
        assert len(store.relational.table("events")) == store.graph.edge_count()
        assert len(store.relational.table("entities")) == store.graph.node_count()

    def test_no_reduction_mode_stores_everything(self, simulation):
        store = AuditStore(apply_reduction=False)
        ingestor = _stream_into(store, simulation, batch_size=64)
        assert ingestor.statistics.events_stored == len(simulation.trace.events)
        assert store.pending_events == 0


class TestStreamIngestor:
    def test_statistics_accumulate(self, simulation):
        store = AuditStore()
        ingestor = StreamIngestor(store, batch_size=32)
        batches = list(ingestor.ingest_stream(ReplaySource(simulation).records()))
        assert ingestor.statistics.batches == len(batches)
        assert ingestor.statistics.events_ingested == len(simulation.trace.events)
        assert ingestor.statistics.seconds > 0.0
        assert ingestor.statistics.events_per_second > 0.0

    def test_batches_expose_watermark(self, simulation):
        store = AuditStore()
        ingestor = StreamIngestor(store, batch_size=32)
        watermarks = [
            batch.watermark_start_ns
            for batch in ingestor.ingest_stream(ReplaySource(simulation).records())
            if batch.watermark_start_ns is not None
        ]
        assert watermarks == sorted(watermarks)

    def test_entities_not_duplicated_across_batches(self, simulation):
        store = AuditStore()
        _stream_into(store, simulation, batch_size=16)
        entity_ids = [row["id"] for row in store.relational.table("entities").scan()]
        assert len(entity_ids) == len(set(entity_ids))

    def test_rejects_bad_batch_size(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            StreamIngestor(AuditStore(), batch_size=0)
