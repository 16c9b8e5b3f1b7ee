"""Property-based tests for Causality Preserved Reduction invariants.

The product has one reducer, :class:`IncrementalReducer`; a whole trace is a
stream with one batch.  ``tests/oracles/cpr.py`` is the whole-trace loop it
must equal under any chunking.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditing.entities import EntityType, FileEntity, ProcessEntity
from repro.auditing.events import Operation, SystemEvent
from repro.auditing.reduction import IncrementalReducer, ReductionStats
from repro.auditing.trace import AuditTrace
from tests.oracles import reduce_trace as oracle_reduce

_PROCESS_IDS = (1, 2)
_FILE_IDS = (3, 4, 5)
_FILE_OPERATIONS = (Operation.READ, Operation.WRITE)
_PROCESS_OPERATIONS = (Operation.FORK, Operation.KILL)
_WINDOWS = (None, 2_000_000, 10_000_000_000)
_ENTITIES = [
    ProcessEntity(entity_id=1, exename="/bin/a", pid=1),
    ProcessEntity(entity_id=2, exename="/bin/b", pid=2),
    FileEntity(entity_id=3, name="/f/one"),
    FileEntity(entity_id=4, name="/f/two"),
    FileEntity(entity_id=5, name="/f/three"),
]


def _time_order(event: SystemEvent) -> tuple[int, int]:
    return event.start_time, event.event_id


def _reduce(trace: AuditTrace, merge_window_ns: int | None = 10_000_000_000):
    """One-batch reduction: the reduced trace (time-ordered) and its stats."""
    reducer = IncrementalReducer(merge_window_ns)
    events = sorted(reducer.ingest(trace.events) + reducer.flush(), key=_time_order)
    return AuditTrace(entities=list(trace.entities), events=events), reducer.statistics()


@st.composite
def _traces(draw):
    """Random small traces over two processes and three files."""
    count = draw(st.integers(min_value=0, max_value=40))
    events = []
    clock = 0
    for event_id in range(1, count + 1):
        clock += draw(st.integers(min_value=1, max_value=1_000_000_000))
        subject = draw(st.sampled_from(_PROCESS_IDS))
        obj = draw(st.sampled_from(_FILE_IDS))
        operation = draw(st.sampled_from(_FILE_OPERATIONS))
        amount = draw(st.integers(min_value=0, max_value=100))
        events.append(
            SystemEvent(
                event_id=event_id,
                subject_id=subject,
                object_id=obj,
                operation=operation,
                object_type=EntityType.FILE,
                start_time=clock,
                end_time=clock + 10,
                amount=amount,
            )
        )
    malicious = {
        event.event_id for event in events if draw(st.booleans()) and draw(st.booleans())
    }
    return AuditTrace(entities=list(_ENTITIES), events=events, malicious_event_ids=malicious)


@st.composite
def _hard_traces(draw):
    """Traces with tied start times, overlapping intervals, self-loops and
    long merge runs, their gaps straddling the 2 ms and 10 s merge windows."""
    count = draw(st.integers(min_value=0, max_value=40))
    gaps = st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=3_000_000),
        st.integers(min_value=1_000_000_000, max_value=12_000_000_000),
    )
    events = []
    clock = 0
    for event_id in range(1, count + 1):
        clock += draw(gaps)
        if events and draw(st.booleans()):  # repeat the last edge: merge runs
            previous = events[-1]
            subject, obj = previous.subject_id, previous.object_id
            operation, object_type = previous.operation, previous.object_type
        else:
            subject = draw(st.sampled_from(_PROCESS_IDS))
            obj = draw(st.sampled_from(_PROCESS_IDS + _FILE_IDS))
            is_process = obj in _PROCESS_IDS
            operation = draw(
                st.sampled_from(_PROCESS_OPERATIONS if is_process else _FILE_OPERATIONS)
            )
            object_type = EntityType.PROCESS if is_process else EntityType.FILE
        events.append(
            SystemEvent(
                event_id=event_id,
                subject_id=subject,
                object_id=obj,
                operation=operation,
                object_type=object_type,
                start_time=clock,
                end_time=clock + draw(st.integers(min_value=0, max_value=5_000_000)),
                amount=draw(st.integers(min_value=0, max_value=100)),
            )
        )
    return AuditTrace(entities=list(_ENTITIES), events=events)


class TestChunkingEqualsTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(_hard_traces(), st.sampled_from(_WINDOWS), st.data())
    def test_any_chunking_equals_the_whole_trace_oracle(self, trace, window, data):
        """Time-ordered chunks of any size, each shuffled on arrival, reduce to
        the oracle's events: the same multiset, and its order once sorted."""
        ordered = sorted(trace.events, key=_time_order)
        size = data.draw(st.integers(min_value=1, max_value=max(1, len(ordered))))
        reducer = IncrementalReducer(window)
        emitted = []
        for start in range(0, len(ordered), size):
            emitted += reducer.ingest(data.draw(st.permutations(ordered[start : start + size])))
        emitted += reducer.flush()
        expected, stats = oracle_reduce(trace, window)
        assert Counter(emitted) == Counter(expected.events)
        assert sorted(emitted, key=_time_order) == expected.events
        assert reducer.statistics() == stats

    def test_self_loop_seals_on_an_interleaving_event(self):
        def event(event_id, subject, obj, start):
            return SystemEvent(
                event_id, subject, obj, Operation.FORK, EntityType.PROCESS, start, start
            )

        trace = AuditTrace(
            entities=list(_ENTITIES),
            events=[event(1, 1, 1, 10), event(2, 2, 1, 20), event(3, 1, 1, 30)],
        )
        reduced, stats = _reduce(trace)
        assert [e.event_id for e in reduced.events] == [1, 2, 3]
        assert stats == ReductionStats(events_before=3, events_after=3)
        assert reduced.events == oracle_reduce(trace)[0].events

    def test_a_late_event_merged_into_a_run_moves_its_start_back(self):
        """Out of order across batches (no oracle to compare), a merge still
        spans every constituent: the run starts at the earliest one."""

        def read(event_id, start):
            return SystemEvent(event_id, 1, 3, Operation.READ, EntityType.FILE, start, start + 5)

        reducer = IncrementalReducer(None)
        assert reducer.ingest([read(1, 100)]) == []
        assert reducer.ingest([read(2, 50)]) == []
        [merged] = reducer.flush()
        assert (merged.event_id, merged.start_time, merged.end_time) == (1, 50, 105)


class TestReductionInvariants:
    @settings(max_examples=60, deadline=None)
    @given(_traces())
    def test_never_increases_event_count(self, trace):
        reduced, stats = _reduce(trace)
        assert len(reduced.events) <= len(trace.events)
        assert stats.events_after == len(reduced.events)
        assert stats.events_before == len(trace.events)

    @settings(max_examples=60, deadline=None)
    @given(_traces())
    def test_preserves_distinct_edge_set(self, trace):
        reduced, _ = _reduce(trace)

        def edges(t: AuditTrace):
            return {(e.subject_id, e.object_id, e.operation) for e in t.events}

        assert edges(reduced) == edges(trace)

    @settings(max_examples=60, deadline=None)
    @given(_traces())
    def test_preserves_total_amount_and_time_span(self, trace):
        reduced, _ = _reduce(trace)
        assert sum(e.amount for e in reduced.events) == sum(e.amount for e in trace.events)
        assert reduced.time_span() == trace.time_span()

    @settings(max_examples=60, deadline=None)
    @given(_traces())
    def test_oracle_preserves_malicious_presence_per_edge(self, trace):
        # Labels stay with the generators' traces; only the oracle carries them.
        reduced, _ = oracle_reduce(trace)
        malicious_edges_before = {
            (e.subject_id, e.object_id, e.operation)
            for e in trace.events
            if e.event_id in trace.malicious_event_ids
        }
        malicious_edges_after = {
            (e.subject_id, e.object_id, e.operation)
            for e in reduced.events
            if e.event_id in reduced.malicious_event_ids
        }
        assert malicious_edges_before == malicious_edges_after

    @settings(max_examples=40, deadline=None)
    @given(_traces())
    def test_second_pass_is_no_worse(self, trace):
        reduced_once, first = _reduce(trace)
        reduced_twice, second = _reduce(reduced_once)
        assert second.events_after <= first.events_after

    @settings(max_examples=40, deadline=None)
    @given(_traces())
    def test_merged_windows_cover_original_windows(self, trace):
        reduced, _ = _reduce(trace)
        spans = {}
        for event in reduced.events:
            key = (event.subject_id, event.object_id, event.operation)
            start, end = spans.get(key, (event.start_time, event.end_time))
            spans[key] = (min(start, event.start_time), max(end, event.end_time))
        for event in trace.events:
            key = (event.subject_id, event.object_id, event.operation)
            start, end = spans[key]
            assert start <= event.start_time
            assert end >= event.end_time
