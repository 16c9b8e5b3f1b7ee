"""Unit tests for the combined audit store loader."""

from __future__ import annotations

from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import NoisyFileServerWorkload, WebServerWorkload
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
        from repro.auditing.trace import AuditTrace

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
        store.load_trace(second, append=True)
        assert len(store.relational.table("events")) == len(whole.events)
        assert store.graph.edge_count() == len(whole.events)
        assert len(store.relational.table("entities")) == len(whole.entities)
        assert store.graph.node_count() == len(whole.entities)

    def test_append_does_not_mutate_caller_trace(self):
        _, first, second = self._halves()
        store = AuditStore(apply_reduction=False)
        store.load_trace(first)
        events_before = len(first.events)
        store.load_trace(second, append=True)
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
