"""EXP-SEGMENTS — durable segmented storage: scan cost, pruning.

Two measurements over a planted-chain synthetic trace:

* **Scan cost** — the same time-windowed join executed on the in-memory
  relational store and on the segmented store (sealed to ~32 on-disk
  segments).  The segmented store answers from mmap-backed column files and
  prunes non-overlapping segments on footer min/max stats, so the windowed
  query should not pay for the full trace.
* **Prune selectivity** — the acceptance criterion (ISSUE 9): on a ≥200k-event
  suite a 10%-of-timeline window must prune **≥50%** of sealed segments.

Set ``SEGMENT_BENCH_EVENTS`` (e.g. ``20000``) for the CI smoke version — the
selectivity floor is then relaxed to "pruning happened at all" (few segments
make the ratio noisy) and only result equivalence is gated.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.storage.relational.database import RelationalDatabase
from repro.storage.relational.expression import Between, Column, Comparison, Literal
from repro.storage.relational.query import SelectQuery
from repro.storage.segment import SegmentedRelationalDatabase

#: Full-scale event count (the acceptance criterion's ≥200k floor).
FULL_SCALE_EVENTS = 200_000
EVENTS = int(os.environ.get("SEGMENT_BENCH_EVENTS", str(FULL_SCALE_EVENTS)))
FULL_SCALE = EVENTS >= FULL_SCALE_EVENTS

#: Seal threshold chosen so the trace spans ~32 segments at any scale.
SEGMENT_ROWS = max(1_024, EVENTS // 32)

NUM_PROCESSES = 300
NUM_FILES = 3000


def build_columnar_trace(num_events: int) -> AuditTrace:
    """A deterministic synthetic trace with planted tar→passwd→upload chains.

    Uses a linear congruential generator instead of :mod:`random` so the trace
    is stable across Python versions (the recorded timings stay comparable).
    """
    state = 17

    def rand(bound: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (2**64)
        return (state >> 33) % bound

    processes = [
        ProcessEntity(entity_id=i + 1, exename=f"/usr/bin/app{i % 50}", pid=1000 + i)
        for i in range(NUM_PROCESSES)
    ]
    tar = ProcessEntity(entity_id=NUM_PROCESSES + 1, exename="/bin/tar", pid=7001)
    curl = ProcessEntity(entity_id=NUM_PROCESSES + 2, exename="/usr/bin/curl", pid=7002)
    processes += [tar, curl]

    file_base = NUM_PROCESSES + 10
    files = [
        FileEntity(entity_id=file_base + i, name=f"/srv/data/file{i}.dat")
        for i in range(NUM_FILES)
    ]
    passwd = FileEntity(entity_id=file_base + NUM_FILES, name="/etc/passwd")
    upload = FileEntity(entity_id=file_base + NUM_FILES + 1, name="/tmp/upload.tar")
    files += [passwd, upload]

    operations = (Operation.READ, Operation.WRITE)
    events: list[SystemEvent] = []
    for i in range(num_events):
        start = (i + 1) * 1_000
        if i % 10_000 == 5_000:
            # Planted attack chain: tar reads /etc/passwd ...
            subject, obj, operation = tar, passwd, Operation.READ
        elif i % 10_000 == 5_001:
            # ... then writes the staging archive ...
            subject, obj, operation = tar, upload, Operation.WRITE
        elif i % 10_000 == 5_002:
            # ... which curl picks up for exfiltration.
            subject, obj, operation = curl, upload, Operation.READ
        else:
            subject = processes[rand(NUM_PROCESSES)]
            obj = files[rand(NUM_FILES)]
            operation = operations[rand(2)]
        events.append(
            SystemEvent(
                event_id=i + 1,
                subject_id=subject.entity_id,
                object_id=obj.entity_id,
                operation=operation,
                object_type=EntityType.FILE,
                start_time=start,
                end_time=start + 500,
                amount=rand(4096),
            )
        )
    return AuditTrace(entities=processes + files, events=events)


@pytest.fixture(scope="module")
def trace():
    return build_columnar_trace(EVENTS)


def _windowed_query(trace) -> SelectQuery:
    """A selective join over the middle 10% of the trace's timeline."""
    low = trace.events[0].start_time
    high = trace.events[-1].start_time
    span = high - low
    window_low = low + int(span * 0.45)
    window_high = low + int(span * 0.55)
    query = SelectQuery()
    query.add_table("events", "e")
    query.add_table("entities", "s")
    query.add_join("e", "srcid", "s", "id")
    query.add_filter("e", Comparison(Column("optype"), "=", Literal("read")))
    query.add_filter("e", Between(Column("starttime"), window_low, window_high))
    query.add_output("s", "exename", "subject")
    query.add_output("e", "id", "event")
    return query


def test_segment_scan_vs_in_memory(trace, tmp_path_factory, bench_results):
    """Windowed scans: segmented store (with pruning) vs the in-memory store."""
    memory = RelationalDatabase()
    memory.load_trace(trace)
    segmented = SegmentedRelationalDatabase(
        tmp_path_factory.mktemp("segments"), segment_rows=SEGMENT_ROWS
    )
    segmented.load_trace(trace)
    segmented.seal()
    query = _windowed_query(trace)

    started = time.perf_counter()
    expected = memory.execute(query)
    memory_seconds = time.perf_counter() - started

    segmented.execute(query)  # warm the per-segment readers (mmap + decode)
    segmented.reset_scan_counters()
    started = time.perf_counter()
    actual = segmented.execute(query)
    segmented_seconds = time.perf_counter() - started

    assert sorted(actual.rows) == sorted(expected.rows)
    stats = segmented.statistics()["segments"]
    bench_results.record(
        "segment_store/scan_vs_memory",
        events=EVENTS,
        full_scale=FULL_SCALE,
        segments=stats["count"],
        memory_seconds=round(memory_seconds, 6),
        segmented_seconds=round(segmented_seconds, 6),
        speedup=round(memory_seconds / max(segmented_seconds, 1e-9), 3),
        rows=len(actual.rows),
    )


def test_segment_prune_selectivity(trace, tmp_path_factory, bench_results):
    """Acceptance: a 10% time window prunes ≥50% of segments at full scale."""
    segmented = SegmentedRelationalDatabase(
        tmp_path_factory.mktemp("segments"), segment_rows=SEGMENT_ROWS
    )
    segmented.load_trace(trace)
    segmented.seal()
    assert segmented.sealed_segments >= 4

    segmented.reset_scan_counters()
    segmented.execute(_windowed_query(trace))
    stats = segmented.statistics()["segments"]
    total = stats["pruned"] + stats["scanned"]
    selectivity = stats["pruned"] / total if total else 0.0

    bench_results.record(
        "segment_store/prune_selectivity",
        events=EVENTS,
        full_scale=FULL_SCALE,
        segments=segmented.sealed_segments,
        pruned=stats["pruned"],
        scanned=stats["scanned"],
        prune_selectivity=round(selectivity, 4),
    )
    if FULL_SCALE:
        assert selectivity >= 0.5, (
            f"pruned only {stats['pruned']}/{total} segments for a 10% window"
        )
    else:
        assert stats["pruned"] > 0  # smoke: pruning must at least engage
