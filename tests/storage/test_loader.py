"""Unit tests for the combined audit store loader."""

from __future__ import annotations

import dataclasses

import pytest

from repro.auditing.trace import AuditTrace
from repro.auditing.workload.attacks import (
    DataLeakageAttack,
    Figure2DataLeakageChain,
    PasswordCrackingAttack,
)
from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import NoisyFileServerWorkload, WebServerWorkload
from repro.auditing.workload.generator import HostSimulator
from repro.errors import SchemaError, StorageError
from repro.scenarios import generate_campaigns
from repro.storage.loader import AuditStore
from repro.tbql.executor import TBQLExecutionEngine
from tests.oracles import reduce_trace as oracle_reduce


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


def _web_server_trace() -> AuditTrace:
    """13 entities (nginx is entity 1), 12 events."""
    builder = ScenarioBuilder(seed=7)
    WebServerWorkload(requests=3).generate(builder)
    return builder.build()


class TestUnknownEndpoints:
    """Regression: an event whose subject or object no entity names stored
    the relational rows before the graph refused the edge (12 events and 0
    edges through ``load_trace``; 11 and 0 plus a pending id left in the
    reducer through ``append_batch`` + ``flush``).  It is refused first."""

    @staticmethod
    def _without_nginx() -> AuditTrace:
        trace = _web_server_trace()
        entities = [entity for entity in trace.entities if entity.entity_id != 1]
        return AuditTrace(host=trace.host, entities=entities, events=trace.events)

    @pytest.mark.parametrize("apply_reduction", [True, False])
    def test_load_trace_refuses_before_writing(self, apply_reduction):
        store = AuditStore(apply_reduction=apply_reduction)
        store.load_trace(_bursty_trace())
        before = _state(store)
        with pytest.raises(StorageError, match="unknown entity id 1\\b"):
            store.load_trace(self._without_nginx())
        assert _state(store) == before

    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_append_batch_refuses_before_the_reducer(self, storage, tmp_path):
        store = AuditStore(storage=storage, data_dir=tmp_path)
        trace = self._without_nginx()
        with pytest.raises(StorageError, match="unknown entity id 1\\b"):
            store.append_batch(trace.entities, trace.events)
        assert _state(store) == (0, 0, 0, 0, 0, 0)
        assert store.flush().stored_events == []

    def test_an_endpoint_stored_by_an_earlier_batch_is_known(self):
        trace = _web_server_trace()
        store = AuditStore(apply_reduction=False)
        store.append_batch(trace.entities[:1], [])
        report = store.append_batch(trace.entities[1:], trace.events)
        assert report.appended_events == len(trace.events)
        assert store.graph.edge_count() == len(trace.events)


class TestRepeatedEntityIds:
    """Regression: a repeated entity id in ``load_trace`` tore the store
    (relational 14 entities and 12 events, graph 13 nodes and 0 edges, then
    ``QueryError: duplicate node id 1``).  As in ``append_batch``, the first
    record of an id wins in both backends."""

    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_first_record_wins_and_the_events_are_stored(self, storage, tmp_path):
        trace = _web_server_trace()
        renamed = dataclasses.replace(trace.entities[0], exename="/usr/sbin/other")
        repeated = AuditTrace(
            host=trace.host, entities=trace.entities + [renamed], events=trace.events
        )
        store = AuditStore(apply_reduction=False, storage=storage, data_dir=tmp_path)
        report = store.load_trace(repeated)
        assert report.relational_rows == {"entities": 13, "events": 12}
        assert report.graph_counts == {"nodes": 13, "edges": 12}
        assert _state(store)[:4] == (12, 13, 12, 13)
        [row] = store.relational.table("entities").lookup_equal("id", 1)
        assert row["exename"] == trace.entities[0].exename
        assert store.graph.node(1).properties["exename"] == trace.entities[0].exename


class TestMistypedValues:
    """Regression: an event the audit schema refuses (a float ``amount``)
    after three good ones in one ``append_batch`` stored the three relational
    rows and no graph edge without advancing ``generation``, and re-sending
    event 1 then stored id 1 twice.  With reduction on, the three were stored
    and ``flush()`` raised after the reducer had dropped the fourth.  The
    batch is refused before the reducer or either backend is touched."""

    @staticmethod
    def _batch(trace: AuditTrace):
        return trace.events[:3] + [dataclasses.replace(trace.events[3], amount=1.5)]

    @pytest.mark.parametrize("apply_reduction", [False, True])
    @pytest.mark.parametrize("storage", ["memory", "segments"])
    def test_append_batch_refuses_the_whole_batch(self, apply_reduction, storage, tmp_path):
        trace = _web_server_trace()
        store = AuditStore(apply_reduction=apply_reduction, storage=storage, data_dir=tmp_path)
        store.append_batch(trace.entities, [])
        before = _state(store)
        with pytest.raises(SchemaError, match="column 'amount' expects int, got float"):
            store.append_batch([], self._batch(trace))
        assert _state(store) == before
        assert store.flush().stored_events == []
        # Nothing of the refused batch was kept: the good events go in once.
        store.append_batch([], trace.events)
        store.flush()
        ids = list(store.relational.table("events").column_array("id"))
        assert len(ids) == len(set(ids)) == store.graph.edge_count()
        if not apply_reduction:
            assert ids == [event.event_id for event in trace.events]

    @pytest.mark.parametrize("apply_reduction", [False, True])
    def test_load_trace_keeps_what_the_store_held(self, apply_reduction):
        trace = _web_server_trace()
        store = AuditStore(apply_reduction=apply_reduction)
        store.load_trace(trace)
        before = _state(store)
        mistyped = AuditTrace(
            host=trace.host, entities=trace.entities, events=self._batch(trace)
        )
        with pytest.raises(SchemaError, match="expects int, got float"):
            store.load_trace(mistyped)
        assert _state(store) == before

    def test_a_mistyped_entity_is_refused_too(self):
        trace = _web_server_trace()
        store = AuditStore()
        bad = dataclasses.replace(trace.entities[0], pid="1")
        with pytest.raises(SchemaError, match="column 'pid' expects int, got str"):
            store.append_batch([bad, *trace.entities[1:]], trace.events)
        assert _state(store) == (0, 0, 0, 0, 0, 0)


def _campaign_trace() -> AuditTrace:
    return generate_campaigns(count=1, base_seed=1200, noise_scale=0.5)[0].trace


def _demo_host_trace() -> AuditTrace:
    return (
        HostSimulator(seed=101, benign_scale=0.5)
        .add_default_benign()
        .add_attack(PasswordCrackingAttack())
        .add_attack(DataLeakageAttack())
        .add_attack(Figure2DataLeakageChain())
        .add_benign(NoisyFileServerWorkload(sessions=3, operations_per_session=30))
        .run()
        .trace
    )


class TestOneIngestPath:
    """A whole-trace load is a stream with one batch: it stores exactly the
    whole-trace oracle's reduced events, in ``(start_time, event_id)`` order,
    so segment partitions and their pruning stats are what they always were."""

    @pytest.mark.parametrize("storage", ["memory", "segments"])
    @pytest.mark.parametrize("make_trace", [_demo_host_trace, _campaign_trace])
    def test_load_stores_the_oracle_reduction_in_time_order(self, storage, make_trace, tmp_path):
        trace = make_trace()
        expected, stats = oracle_reduce(trace)
        rows = [event.to_row() for event in expected.events]
        store = AuditStore(storage=storage, data_dir=tmp_path, segment_rows=64)
        report = store.load_trace(trace)

        assert report.reduction == stats
        assert report.relational_rows == {"entities": len(trace.entities), "events": len(rows)}
        assert report.graph_counts == {"nodes": len(trace.entities), "edges": len(rows)}
        if storage == "memory":
            assert list(store.relational.table("events").scan()) == rows
            return
        assert list(store.relational.event_rows()) == rows
        readers = store.relational.segment_readers
        assert len(readers) == len(rows) // 64 >= 4
        for index, reader in enumerate(readers):
            starts = [row["starttime"] for row in rows[index * 64 : (index + 1) * 64]]
            assert (reader.min_starttime, reader.max_starttime) == (min(starts), max(starts))
