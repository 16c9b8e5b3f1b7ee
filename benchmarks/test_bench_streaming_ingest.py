"""EXP-STREAM — streaming ingestion throughput and standing-query latency.

The streaming subsystem claims two things worth measuring:

* **batched-append throughput** — micro-batched incremental ingestion (entity
  dedup + incremental Causality Preserved Reduction + appends into both
  backends) should sustain a high event rate, since it is the path a live
  deployment would run continuously;
* **standing-query latency** — re-evaluating a registered hunt after a batch
  with the watermark-windowed strategy (only new data can complete a match)
  must beat naively re-executing the full query over the whole store, which
  is what makes per-batch re-evaluation affordable at all.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from benchmarks.conftest import build_simulation
from repro.core.pipeline import ThreatRaptor
from repro.data import FIGURE2_REPORT
from repro.storage.loader import AuditStore
from repro.streaming import ReplaySource, StreamIngestor, iter_batches

_BATCH_SIZE = 512


@pytest.fixture(scope="module")
def stream_simulation():
    """~15k events: large enough that full re-execution visibly hurts."""
    return build_simulation(scale=4.0)


@pytest.fixture(scope="module")
def stream_records(stream_simulation):
    return list(ReplaySource(stream_simulation).records())


def _ingest_all(records):
    ingestor = StreamIngestor(AuditStore(), batch_size=_BATCH_SIZE)
    for batch in iter_batches(iter(records), _BATCH_SIZE):
        ingestor.ingest(batch)
    ingestor.flush()
    return ingestor


def test_bench_batched_append_throughput(benchmark, stream_records):
    """Micro-batched append rate into both backends, events per second."""
    ingestor = benchmark(_ingest_all, stream_records)
    assert ingestor.statistics.events_ingested == len(stream_records)
    benchmark.extra_info["events"] = len(stream_records)
    benchmark.extra_info["batch_size"] = _BATCH_SIZE
    benchmark.extra_info["events_per_second"] = round(
        len(stream_records) / benchmark.stats.stats.mean
    )


@pytest.fixture(scope="module")
def streamed_service(stream_records):
    """A service that has streamed everything; the last batch sets the watermark."""
    raptor = ThreatRaptor()
    service = raptor.watch(FIGURE2_REPORT.text, name="fig2", batch_size=_BATCH_SIZE)
    head, tail = stream_records[:-_BATCH_SIZE], stream_records[-_BATCH_SIZE:]
    for batch in iter_batches(iter(head), _BATCH_SIZE):
        service.process_batch(batch)
    final_batch = service._ingestor.ingest(tail)
    return service, final_batch.watermark_start_ns


def _query_pair(streamed_service):
    service, watermark = streamed_service
    standing = service.hunts[0]
    overrides = service._monitor._window_overrides(standing, watermark)
    assert overrides, "watermark windowing must have applied"
    windowed = replace(
        standing.query,
        patterns=[
            replace(pattern, window=overrides.get(pattern.event_id, pattern.window))
            for pattern in standing.query.patterns
        ],
    )
    return service.raptor, windowed, standing.query


def test_bench_standing_query_windowed(benchmark, streamed_service):
    """Per-batch evaluation with the sink pattern narrowed to new data."""
    raptor, windowed, _ = _query_pair(streamed_service)
    benchmark(raptor.execute_query, windowed)
    benchmark.extra_info["strategy"] = "windowed"


def test_bench_standing_query_full_reexecution(benchmark, streamed_service):
    """The naive baseline: re-run the whole query over the whole store."""
    raptor, _, full = _query_pair(streamed_service)
    benchmark(raptor.execute_query, full)
    benchmark.extra_info["strategy"] = "full-reexecution"


def test_windowed_vs_full_reexecution_latency(streamed_service):
    """Watermark windowing applies; both latencies are printed, not judged."""
    raptor, windowed, full = _query_pair(streamed_service)

    def median_seconds(query, rounds=7):
        samples = []
        for _ in range(rounds):
            started = time.perf_counter()
            raptor.execute_query(query)
            samples.append(time.perf_counter() - started)
        return sorted(samples)[len(samples) // 2]

    windowed_seconds = median_seconds(windowed)
    full_seconds = median_seconds(full)
    print(
        f"\n[EXP-STREAM] per-batch standing-query latency: "
        f"windowed={windowed_seconds * 1000:.2f}ms "
        f"full-reexecution={full_seconds * 1000:.2f}ms "
        f"speedup={full_seconds / windowed_seconds:.1f}x"
    )
    assert raptor.execute_query(windowed).all_matched_event_ids() <= (
        raptor.execute_query(full).all_matched_event_ids()
    )


def test_streamed_store_matches_batch_store(stream_simulation, stream_records):
    """Incremental ingestion stores exactly what a whole-trace load stores."""
    streamed = _ingest_all(stream_records).store
    batch = AuditStore()
    batch.load_trace(stream_simulation.trace)
    streamed_ids = {e.event_id for e in streamed.loaded_trace.events}
    batch_ids = {e.event_id for e in batch.loaded_trace.events}
    assert streamed_ids == batch_ids
    assert streamed.graph.edge_count() == batch.graph.edge_count()
