"""End-to-end tests for the continuous hunting service."""

from __future__ import annotations

import io
import json

import pytest

from repro.auditing.workload.attacks import Figure2DataLeakageChain
from repro.auditing.workload.generator import HostSimulator
from repro.core.pipeline import ThreatRaptor
from repro.data import FIGURE2_REPORT
from repro.streaming import JSONLSink, ListSink, ReplaySource


@pytest.fixture(scope="module")
def simulation():
    return (
        HostSimulator(seed=31, benign_scale=0.4)
        .add_default_benign()
        .add_attack(Figure2DataLeakageChain())
        .run()
    )


@pytest.fixture(scope="module")
def batch_matched(simulation):
    """What a one-shot batch hunt over the full trace finds."""
    raptor = ThreatRaptor()
    raptor.load_trace(simulation.trace)
    return raptor.hunt(FIGURE2_REPORT.text).result.all_matched_event_ids()


def _run_streaming(simulation, batch_size):
    raptor = ThreatRaptor()
    sink = ListSink()
    service = raptor.watch(
        FIGURE2_REPORT.text, name="figure2", batch_size=batch_size, sinks=(sink,)
    )
    alerts = service.run(ReplaySource(simulation))
    return service, sink, alerts


class TestStreamingHuntEquivalence:
    def test_streamed_hunt_matches_batch_hunt(self, simulation, batch_matched):
        batch_size = max(1, len(simulation.trace.events) // 12)
        service, _, _ = _run_streaming(simulation, batch_size)
        assert service.statistics()["ingest"]["batches"] >= 10
        assert service.matched_event_ids("figure2") == batch_matched

    def test_alerts_deduplicated_across_batches(self, simulation, batch_matched):
        service, sink, alerts = _run_streaming(
            simulation, max(1, len(simulation.trace.events) // 15)
        )
        signatures = [alert.matched_event_ids for alert in alerts]
        assert len(signatures) == len(set(signatures))
        assert sink.alerts == alerts
        matched = set().union(*(set(s) for s in signatures))
        assert matched == batch_matched

    @pytest.mark.parametrize("batch_size", [17, 1000])
    def test_equivalence_is_batch_size_independent(
        self, simulation, batch_matched, batch_size
    ):
        service, _, _ = _run_streaming(simulation, batch_size)
        assert service.matched_event_ids("figure2") == batch_matched

    def test_windowed_evaluation_is_a_subset_of_full_reexecution(self, simulation):
        """After the last batch, the watermark-windowed hunt matches nothing a
        full re-execution over the whole store would not."""
        batch_size = 64
        service = ThreatRaptor().watch(FIGURE2_REPORT.text, name="figure2", batch_size=batch_size)
        records = list(ReplaySource(simulation).records())
        head, tail = records[:-batch_size], records[-batch_size:]
        for start in range(0, len(head), batch_size):
            service.process_batch(head[start : start + batch_size])
        final = service._ingestor.ingest(tail)
        service._ingestor.flush()  # seal what the reducer still holds
        [standing] = service.hunts
        overrides = service._monitor._window_overrides(standing, final.watermark_start_ns)
        assert overrides, "watermark windowing must have applied"
        windowed = standing.prepared.execute(window_overrides=overrides)
        full = standing.prepared.execute()
        assert full.all_matched_event_ids()
        assert windowed.all_matched_event_ids() <= full.all_matched_event_ids()


class TestHuntingService:
    def test_register_requires_exactly_one_source(self):
        service = ThreatRaptor().watch()
        with pytest.raises(ValueError):
            service.register_hunt("bad")
        with pytest.raises(ValueError):
            service.register_hunt("bad", report="text", query="proc p read file f as e return p")

    def test_register_tbql_query_directly(self, simulation):
        service = ThreatRaptor().watch(batch_size=64)
        service.register_hunt(
            "tar", query='proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e return p, f'
        )
        service.run(ReplaySource(simulation))
        assert service.matched_event_ids("tar")

    def test_hunt_registered_after_data_still_catches_up(self, simulation, batch_matched):
        """The first evaluation is unwindowed, so earlier batches are searched."""
        service = ThreatRaptor().watch(batch_size=64)
        records = list(ReplaySource(simulation).records())
        midpoint = len(records) // 2
        for start in range(0, midpoint, 64):
            service.process_batch(records[start : min(start + 64, midpoint)])
        service.register_hunt("late", report=FIGURE2_REPORT.text)
        for start in range(midpoint, len(records), 64):
            service.process_batch(records[start : start + 64])
        service.flush()
        assert service.matched_event_ids("late") == batch_matched

    def test_statistics_shape(self, simulation):
        service, _, _ = _run_streaming(simulation, 64)
        stats = service.statistics()
        assert stats["ingest"]["events_ingested"] == len(simulation.trace.events)
        assert stats["ingest"]["events_per_second"] > 0
        assert stats["ingest"]["pending_events"] == 0  # flushed at end of run
        hunt = stats["hunts"]["figure2"]
        assert hunt["evaluations"] > 0
        assert hunt["alerts"] >= 1
        assert hunt["matched_events"] == len(service.matched_event_ids("figure2"))

    def test_jsonl_sink_round_trips(self, simulation):
        raptor = ThreatRaptor()
        buffer = io.StringIO()
        service = raptor.watch(
            FIGURE2_REPORT.text, name="figure2", batch_size=64, sinks=(JSONLSink(buffer),)
        )
        alerts = service.run(ReplaySource(simulation))
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert len(lines) == len(alerts)
        for parsed, alert in zip(lines, alerts):
            assert parsed == alert.to_dict()

    def test_shares_store_with_raptor(self, simulation):
        """Data loaded before watching stays huntable and vice versa."""
        raptor = ThreatRaptor()
        service = raptor.watch(batch_size=64)
        service.run(ReplaySource(simulation))
        report = raptor.hunt(FIGURE2_REPORT.text)
        assert report.result.all_matched_event_ids()
