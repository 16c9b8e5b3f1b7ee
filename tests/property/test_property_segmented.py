"""Property tests: the segmented store answers exactly like the in-memory one.

Randomized traces are loaded into both a :class:`RelationalDatabase` (the
in-memory vectorized store) and a :class:`SegmentedRelationalDatabase` with a
tiny seal threshold (so every trace spans several on-disk segments plus a
memtable tail), then randomized queries — including time-window filters that
exercise segment pruning — must return identical row multisets.  Row *order*
may differ: partition-wise execution concatenates per-segment results, so
comparisons sort first.

A seeded stress section does the same for full TBQL hunts (event patterns,
path patterns, temporal constraints) through :class:`AuditStore` with
``storage="segments"``, including after a reopen from disk.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import NoisyFileServerWorkload
from repro.storage.loader import AuditStore
from repro.storage.relational.database import RelationalDatabase
from repro.storage.relational.expression import Between, Column, Comparison, Like, Literal
from repro.storage.relational.query import SelectQuery
from repro.storage.segment import SegmentedRelationalDatabase
from repro.tbql.executor import execute_query

_PROCESSES = ["/bin/tar", "/usr/bin/curl", "/bin/bash"]
_FILES = ["/etc/passwd", "/tmp/upload.tar", "/var/log/syslog", "/home/user/notes"]

_events = st.lists(
    st.tuples(
        st.integers(0, len(_PROCESSES) - 1),  # subject
        st.integers(0, len(_FILES) - 1),  # object
        st.sampled_from([Operation.READ, Operation.WRITE]),
        st.integers(0, 400),  # start-time offset (deliberately unsorted)
    ),
    min_size=0,
    max_size=80,
)

_windows = st.tuples(st.integers(0, 400), st.integers(0, 400))


def _trace(event_specs) -> AuditTrace:
    entities = [
        ProcessEntity(entity_id=index + 1, exename=name, pid=100 + index)
        for index, name in enumerate(_PROCESSES)
    ] + [
        FileEntity(entity_id=10 + index, name=name) for index, name in enumerate(_FILES)
    ]
    events = [
        SystemEvent(
            event_id=index + 1,
            subject_id=subject + 1,
            object_id=10 + obj,
            operation=operation,
            object_type=EntityType.FILE,
            start_time=1_000 + offset * 10,
            end_time=1_005 + offset * 10,
            amount=32,
        )
        for index, (subject, obj, operation, offset) in enumerate(event_specs)
    ]
    return AuditTrace(entities=entities, events=events)


def _query(optype: str, pattern: str, window, distinct: bool) -> SelectQuery:
    query = SelectQuery(distinct=distinct)
    query.add_table("events", "e")
    query.add_table("entities", "s")
    query.add_table("entities", "o")
    query.add_join("e", "srcid", "s", "id")
    query.add_join("e", "dstid", "o", "id")
    query.add_filter("e", Comparison(Column("optype"), "=", Literal(optype)))
    query.add_filter("s", Like(Column("exename"), pattern))
    if window is not None:
        low, high = min(window), max(window)
        query.add_filter(
            "e", Between(Column("starttime"), 1_000 + low * 10, 1_000 + high * 10)
        )
    query.add_output("s", "exename", "subject")
    query.add_output("o", "name", "object")
    if not distinct:
        query.add_output("e", "id", "event")
    return query


class TestSegmentedMatchesInMemory:
    @settings(max_examples=40, deadline=None)
    @given(
        _events,
        st.sampled_from(["read", "write"]),
        st.sampled_from(["%tar%", "%curl%", "%", "%bash%"]),
        st.one_of(st.none(), _windows),
        st.booleans(),
    )
    def test_identical_row_multisets(self, event_specs, optype, pattern, window, distinct):
        trace = _trace(event_specs)
        memory = RelationalDatabase()
        memory.append_batch(trace.entities, trace.events)
        query = _query(optype, pattern, window, distinct)
        expected = memory.execute(query)
        with tempfile.TemporaryDirectory(prefix="segprop-") as workdir:
            segmented = SegmentedRelationalDatabase(Path(workdir), segment_rows=8)
            segmented.append_batch(trace.entities, trace.events)
            actual = segmented.execute(query)
            assert sorted(actual.rows) == sorted(expected.rows)
            assert actual.columns == expected.columns
            if distinct:
                # DISTINCT must hold globally, not merely per segment.
                assert len(set(actual.rows)) == len(actual.rows)

    @settings(max_examples=20, deadline=None)
    @given(_events, st.one_of(st.none(), _windows))
    def test_reopened_store_agrees(self, event_specs, window):
        """Sealing + reopening from the manifest loses no rows and adds none."""
        trace = _trace(event_specs)
        query = _query("read", "%", window, False)
        with tempfile.TemporaryDirectory(prefix="segprop-") as workdir:
            first = SegmentedRelationalDatabase(Path(workdir), segment_rows=8)
            first.append_batch(trace.entities, trace.events)
            first.seal()
            expected = first.execute(query)
            reopened = SegmentedRelationalDatabase(Path(workdir), segment_rows=8)
            assert sorted(reopened.execute(query).rows) == sorted(expected.rows)


_TBQL_QUERIES = [
    'proc p["%/bin/tar%"] read file f as e return distinct p, f',
    'proc p read or write file f["%data%"] as e return p, f',
    (
        'proc p["%server%"] read file f1 as e1 '
        'proc p write file f2 as e2 '
        "with e1 before e2 return distinct f1, f2"
    ),
    'proc p ~>(1~3)[write] file f as e return distinct p, f',
]


class TestSeededTBQLStress:
    def test_full_hunts_match_across_storage_backends(self):
        """Seeded workload traces: memory vs segments vs reopened segments."""
        rng = random.Random(4099)
        for _ in range(4):
            seed = rng.randrange(1 << 16)
            builder = ScenarioBuilder(seed=seed)
            NoisyFileServerWorkload(sessions=3, operations_per_session=25).generate(builder)
            trace = builder.build()

            memory = AuditStore()
            memory.load_trace(trace)
            with tempfile.TemporaryDirectory(prefix="segprop-") as workdir:
                segmented = AuditStore(
                    storage="segments", data_dir=workdir, segment_rows=64
                )
                segmented.load_trace(trace)
                segmented.flush()
                reopened = AuditStore(
                    storage="segments", data_dir=workdir, segment_rows=64
                )
                for text in _TBQL_QUERIES:
                    expected = execute_query(memory, text)
                    for store in (segmented, reopened):
                        actual = execute_query(store, text)
                        assert sorted(actual.rows) == sorted(expected.rows), (
                            f"seed={seed} query={text!r}"
                        )
                        assert actual.all_matched_event_ids() == (
                            expected.all_matched_event_ids()
                        ), f"seed={seed} query={text!r}"
