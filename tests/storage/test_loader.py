"""Unit tests for the combined audit store loader."""

from __future__ import annotations

import pytest

from repro.auditing.trace import AuditTrace
from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import NoisyFileServerWorkload, WebServerWorkload
from repro.errors import StorageError
from repro.storage.loader import AuditStore
from repro.tbql.executor import TBQLExecutionEngine


def _bursty_trace():
    builder = ScenarioBuilder(seed=7)
    NoisyFileServerWorkload(sessions=3, operations_per_session=40).generate(builder)
    WebServerWorkload(requests=10).generate(builder)
    return builder.build()


def _stored_event_ids(store: AuditStore) -> set[int]:
    return {row["id"] for row in store.relational.table("events").scan()}


class TestAuditStore:
    def test_load_into_both_backends(self):
        trace = _bursty_trace()
        store = AuditStore(apply_reduction=False)
        report = store.load_trace(trace)
        assert report.relational_rows["events"] == len(trace.events)
        assert report.graph_counts["edges"] == len(trace.events)
        assert report.reduction is None
        assert _stored_event_ids(store) == {event.event_id for event in trace.events}

    def test_reduction_applied_by_default(self):
        trace = _bursty_trace()
        store = AuditStore()
        report = store.load_trace(trace)
        assert report.reduction is not None
        assert report.reduction.events_before == len(trace.events)
        assert report.relational_rows["events"] == report.reduction.events_after
        assert report.graph_counts["edges"] == report.reduction.events_after
        assert report.reduction.reduction_factor > 1.0

    def test_backends_consistent_after_load(self):
        trace = _bursty_trace()
        store = AuditStore()
        store.load_trace(trace)
        relational_events = len(store.relational.table("events"))
        graph_edges = store.graph.edge_count()
        assert relational_events == graph_edges
        relational_entities = len(store.relational.table("entities"))
        assert relational_entities == store.graph.node_count()

    def test_reduced_store_answers_like_the_raw_store(self):
        builder = ScenarioBuilder(seed=31)
        NoisyFileServerWorkload(sessions=3, operations_per_session=30).generate(builder)
        trace = builder.build()
        query = (
            'proc p["%/usr/sbin/smbd%"] read file f as e1 proc p send ip c as e2 '
            "with e1 before e2 return distinct p, f, c"
        )
        raw_store = AuditStore(apply_reduction=False)
        raw_store.load_trace(trace)
        reduced_store = AuditStore()
        reduced_store.load_trace(trace)
        raw = TBQLExecutionEngine(raw_store).execute(query)
        reduced = TBQLExecutionEngine(reduced_store).execute(query)
        assert raw.rows and set(raw.rows) == set(reduced.rows)
        assert len(reduced_store.relational.table("events")) < len(trace.events)

    def test_statistics_structure(self):
        store = AuditStore()
        store.load_trace(_bursty_trace())
        stats = store.statistics()
        assert "relational" in stats and "graph" in stats
        assert stats["graph"]["nodes"] == stats["relational"]["entities"]["rows"]

    def test_empty_store(self):
        store = AuditStore()
        assert len(store.relational) == 0
        stats = store.statistics()
        assert stats["graph"]["nodes"] == 0


class TestRepeatedLoads:
    """Regression tests: repeated load_trace calls are well-defined."""

    def test_double_load_replaces_not_overlays(self):
        first = _bursty_trace()
        builder = ScenarioBuilder(seed=99)
        WebServerWorkload(requests=5).generate(builder)
        second = builder.build()

        store = AuditStore(apply_reduction=False)
        store.load_trace(first)
        report = store.load_trace(second)
        # Exactly the second trace is stored — no half-overwritten mixture.
        assert report.relational_rows["events"] == len(second.events)
        assert len(store.relational.table("events")) == len(second.events)
        assert store.graph.edge_count() == len(second.events)
        assert len(store.relational.table("entities")) == len(second.entities)
        assert store.graph.node_count() == len(second.entities)
        assert _stored_event_ids(store) == {event.event_id for event in second.events}

    def test_double_load_same_trace_is_idempotent(self):
        trace = _bursty_trace()
        store = AuditStore()
        store.load_trace(trace)
        first_stats = store.statistics()
        store.load_trace(trace)
        assert store.statistics() == first_stats

    @staticmethod
    def _halves():
        """One trace split in two halves sharing the entity/event id space."""
        whole = _bursty_trace()
        midpoint = len(whole.events) // 2
        first = AuditTrace(host=whole.host, entities=list(whole.entities))
        first.add_events(whole.events[:midpoint])
        second = AuditTrace(host=whole.host, entities=list(whole.entities))
        second.add_events(whole.events[midpoint:])
        return whole, first, second

    def test_append_adds_to_existing_data(self):
        whole, first, second = self._halves()
        store = AuditStore(apply_reduction=False)
        store.load_trace(first)
        store.append_batch(second.entities, second.events)
        assert len(store.relational.table("events")) == len(whole.events)
        assert store.graph.edge_count() == len(whole.events)
        assert len(store.relational.table("entities")) == len(whole.entities)
        assert store.graph.node_count() == len(whole.entities)

    def test_append_does_not_mutate_caller_trace(self):
        _, first, second = self._halves()
        store = AuditStore(apply_reduction=False)
        store.load_trace(first)
        events_before = len(first.events)
        store.append_batch(second.entities, second.events)
        assert len(first.events) == events_before
        both = first.events + second.events
        assert _stored_event_ids(store) == {event.event_id for event in both}

    def test_reset_empties_both_backends(self):
        store = AuditStore()
        store.load_trace(_bursty_trace())
        store.reset()
        assert len(store.relational) == 0
        assert len(store.relational.table("events")) == 0
        assert store.graph.node_count() == 0


def _state(store: AuditStore) -> tuple[int, ...]:
    """Row counts of both backends, reducer backlog and generation."""
    return (
        len(store.relational.table("events")),
        len(store.relational.table("entities")),
        store.graph.edge_count(),
        store.graph.node_count(),
        store.pending_events,
        store.generation,
    )


class TestRepeatedEventIds:
    """Regression: a repeated event id was merged by CPR into the original
    (summing its amount) or tore the store (the relational table took the row
    the graph then refused).  It is refused before anything is written."""

    @pytest.mark.parametrize("apply_reduction", [True, False])
    def test_whole_trace_with_a_repeated_id_is_refused(self, apply_reduction):
        trace = _bursty_trace()
        repeated = AuditTrace(
            host=trace.host, entities=list(trace.entities), events=trace.events + [trace.events[5]]
        )
        store = AuditStore(apply_reduction=apply_reduction)
        store.load_trace(trace)
        before = _state(store)
        with pytest.raises(StorageError, match=f"id {trace.events[5].event_id}\\b"):
            store.load_trace(repeated)
        assert _state(store) == before

    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_append_of_a_stored_id_is_refused(self, storage, tmp_path):
        trace = _bursty_trace()
        store = AuditStore(apply_reduction=False, storage=storage, data_dir=tmp_path)
        store.append_batch(trace.entities, trace.events[:50])
        before = _state(store)
        with pytest.raises(StorageError, match=f"id {trace.events[6].event_id}\\b"):
            store.append_batch([], trace.events[50:60] + [trace.events[6]])
        assert _state(store) == before

    def test_repeat_within_one_batch_is_refused(self):
        trace = _bursty_trace()
        store = AuditStore(apply_reduction=False)
        with pytest.raises(StorageError, match=f"id {trace.events[3].event_id}\\b"):
            store.append_batch(trace.entities, trace.events[:10] + [trace.events[3]])
        assert _state(store) == (0, 0, 0, 0, 0, 0)

    def test_append_of_an_id_pending_in_the_reducer_is_refused(self):
        trace = _bursty_trace()
        store = AuditStore()
        store.append_batch(trace.entities, [trace.events[0]])
        before = _state(store)
        assert before[4] == 1  # the event waits for a merge decision
        with pytest.raises(StorageError, match=f"id {trace.events[0].event_id}\\b"):
            store.append_batch([], [trace.events[0]])
        assert _state(store) == before
        assert [event.event_id for event in store.flush().stored_events] == [
            trace.events[0].event_id
        ]
