"""Unit tests for Causality Preserved Reduction.

The product reduces through :class:`IncrementalReducer` only; a whole trace is
one batch.  ``tests/oracles/cpr.py`` keeps the whole-trace loop as the
reference it must equal.
"""

from __future__ import annotations

from repro.auditing.entities import EntityType, FileEntity, NetworkEntity, ProcessEntity
from repro.auditing.events import Operation, SystemEvent
from repro.auditing.reduction import IncrementalReducer
from repro.auditing.trace import AuditTrace
from repro.auditing.workload.attacks import (
    DataLeakageAttack,
    Figure2DataLeakageChain,
    PasswordCrackingAttack,
)
from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import NoisyFileServerWorkload
from repro.auditing.workload.generator import HostSimulator
from tests.oracles import reduce_trace as oracle_reduce


def _event(event_id, subject, obj, operation, start, end=None, amount=1, object_type=EntityType.FILE):
    return SystemEvent(
        event_id=event_id,
        subject_id=subject,
        object_id=obj,
        operation=operation,
        object_type=object_type,
        start_time=start,
        end_time=end if end is not None else start + 1,
        amount=amount,
    )


def reduce_trace(trace, merge_window_ns=10_000_000_000):
    """One-batch reduction: the reduced trace (time-ordered) and its stats."""
    reducer = IncrementalReducer(merge_window_ns)
    events = reducer.ingest(trace.events) + reducer.flush()
    events.sort(key=lambda e: (e.start_time, e.event_id))
    reduced = AuditTrace(host=trace.host, entities=list(trace.entities), events=events)
    return reduced, reducer.statistics()


def _trace_with(events, malicious=()):
    entities = [
        ProcessEntity(entity_id=1, exename="/bin/p", pid=1),
        FileEntity(entity_id=2, name="/tmp/a"),
        FileEntity(entity_id=3, name="/tmp/b"),
        NetworkEntity(entity_id=4, dstip="1.1.1.1", dstport=80),
    ]
    trace = AuditTrace(entities=entities, events=list(events), malicious_event_ids=set(malicious))
    return trace


class TestReduction:
    def test_consecutive_same_edge_events_merge(self):
        events = [
            _event(1, 1, 2, Operation.READ, 100, amount=10),
            _event(2, 1, 2, Operation.READ, 200, amount=20),
            _event(3, 1, 2, Operation.READ, 300, amount=30),
        ]
        reduced, stats = reduce_trace(_trace_with(events))
        assert stats.events_before == 3
        assert stats.events_after == 1
        assert stats.reduction_factor == 3.0
        merged = reduced.events[0]
        assert merged.amount == 60
        assert merged.start_time == 100
        assert merged.end_time == 301

    def test_different_operations_not_merged(self):
        events = [
            _event(1, 1, 2, Operation.READ, 100),
            _event(2, 1, 2, Operation.WRITE, 200),
        ]
        _, stats = reduce_trace(_trace_with(events))
        assert stats.events_after == 2

    def test_interleaving_event_on_subject_blocks_merge(self):
        # The subject writes to another file between the two reads, so merging
        # the reads would hide a possible information-flow ordering.
        events = [
            _event(1, 1, 2, Operation.READ, 100),
            _event(2, 1, 3, Operation.WRITE, 200),
            _event(3, 1, 2, Operation.READ, 300),
        ]
        _, stats = reduce_trace(_trace_with(events))
        assert stats.events_after == 3

    def test_interleaving_event_on_object_blocks_merge(self):
        # Another process (id 5 is not registered; reuse subject 1 with the
        # object touched by a different edge) — here the object is written by a
        # different operation in between.
        events = [
            _event(1, 1, 2, Operation.READ, 100),
            _event(2, 1, 2, Operation.WRITE, 200),
            _event(3, 1, 2, Operation.READ, 300),
        ]
        _, stats = reduce_trace(_trace_with(events))
        assert stats.events_after == 3

    def test_merge_window_limits_merging(self):
        events = [
            _event(1, 1, 2, Operation.READ, 0),
            _event(2, 1, 2, Operation.READ, 50_000_000_000),  # 50 s later
        ]
        _, stats_small_window = reduce_trace(_trace_with(events), 1_000_000_000)
        _, stats_unbounded = reduce_trace(_trace_with(events), None)
        assert stats_small_window.events_after == 2
        assert stats_unbounded.events_after == 1

    def test_oracle_carries_a_malicious_label_through_a_merge(self):
        # Labels stay with the generators' traces; only the oracle carries them.
        events = [
            _event(1, 1, 2, Operation.READ, 100),
            _event(2, 1, 2, Operation.READ, 200),
        ]
        reduced, _ = oracle_reduce(_trace_with(events, malicious={2}))
        assert len(reduced.events) == 1
        assert reduced.malicious_event_ids == {reduced.events[0].event_id}

    def test_entities_preserved(self):
        events = [_event(1, 1, 2, Operation.READ, 100)]
        trace = _trace_with(events)
        reduced, _ = reduce_trace(trace)
        assert len(reduced.entities) == len(trace.entities)

    def test_empty_trace(self):
        reduced, stats = reduce_trace(AuditTrace())
        assert stats.events_before == 0
        assert stats.events_after == 0
        assert stats.reduction_factor == 1.0
        assert len(reduced.events) == 0

    def test_noisy_file_server_workload_reduces_substantially(self):
        builder = ScenarioBuilder(seed=3)
        NoisyFileServerWorkload(sessions=4, operations_per_session=50).generate(builder)
        trace = builder.build()
        reduced, stats = reduce_trace(trace)
        assert stats.reduction_factor > 5.0
        assert len(reduced.events) < len(trace.events)

    def test_mixed_demo_host_reduces(self):
        simulation = (
            HostSimulator(seed=29, benign_scale=1.0)
            .add_default_benign()
            .add_attack(PasswordCrackingAttack())
            .add_attack(DataLeakageAttack())
            .add_attack(Figure2DataLeakageChain())
            .add_benign(NoisyFileServerWorkload(sessions=6, operations_per_session=60))
            .run()
        )
        _, stats = reduce_trace(simulation.trace)
        assert stats.reduction_factor >= 1.2

    def test_reduction_preserves_edge_set(self):
        builder = ScenarioBuilder(seed=3)
        NoisyFileServerWorkload(sessions=2, operations_per_session=20).generate(builder)
        trace = builder.build()
        reduced, _ = reduce_trace(trace)

        def edges(t):
            return {(e.subject_id, e.object_id, e.operation) for e in t.events}

        assert edges(reduced) == edges(trace)

    def test_reduction_preserves_total_amount(self):
        builder = ScenarioBuilder(seed=3)
        NoisyFileServerWorkload(sessions=2, operations_per_session=20).generate(builder)
        trace = builder.build()
        reduced, _ = reduce_trace(trace)
        assert sum(e.amount for e in reduced.events) == sum(e.amount for e in trace.events)


class TestIncrementalReducer:
    """Streamed in batches of any size, the one reducer equals the whole-trace
    oracle exactly."""

    @staticmethod
    def _noisy_trace():
        builder = ScenarioBuilder(seed=3)
        NoisyFileServerWorkload(sessions=3, operations_per_session=30).generate(builder)
        return builder.build()

    @staticmethod
    def _stream(trace, batch_size, window):
        incremental = IncrementalReducer(window)
        ordered = sorted(trace.events, key=lambda e: (e.start_time, e.event_id))
        emitted = []
        for start in range(0, len(ordered), batch_size):
            emitted.extend(incremental.ingest(ordered[start : start + batch_size]))
        emitted.extend(incremental.flush())
        return incremental, emitted

    def test_matches_the_oracle_for_any_batch_size(self):
        trace = self._noisy_trace()
        for window in (10_000_000_000, 2_000_000, None):
            reduced, _ = oracle_reduce(trace, window)
            for batch_size in (1, 13, 10_000):
                _, emitted = self._stream(trace, batch_size, window)
                emitted.sort(key=lambda e: (e.start_time, e.event_id))
                assert emitted == reduced.events, (window, batch_size)

    def test_counters_and_pending(self):
        trace = self._noisy_trace()
        incremental = IncrementalReducer()
        incremental.ingest(trace.events)
        assert incremental.events_seen == len(trace.events)
        assert incremental.pending_count > 0
        stats = incremental.statistics()
        assert stats.events_before == len(trace.events)
        incremental.flush()
        assert incremental.pending_count == 0
        assert incremental.events_emitted == stats.events_after
        assert incremental.statistics() == oracle_reduce(trace)[1]
