"""A data query touches what it returns, not what the store holds.

Wall-clock free: a spy on :meth:`Table.filter_positions` counts the
positions every alias of a ``compile_select`` data query hands to it (its
access path's or its index probe's candidates).  A windowed query over a
store grown 8× outside the window, and a quiet standing hunt over a growing
stream, must keep that count flat — the window is an index range and the
entity aliases are probed through the join keys the window binds.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.storage.loader import AuditStore
from repro.storage.relational.database import RelationalDatabase
from repro.storage.relational.table import Table
from repro.streaming.monitor import QueryMonitor
from repro.tbql.ast import TimeWindow
from repro.tbql.compiler import compile_select, constrain_select
from repro.tbql.executor import TBQLExecutionEngine
from repro.tbql.parser import parse_query

_WINDOW = TimeWindow(start=100_000, end=100_100)
#: Realistically many operation types, so no single ``optype`` bucket is small.
_FILE_OPERATIONS = (
    Operation.READ, Operation.WRITE, Operation.CREATE,
    Operation.DELETE, Operation.RENAME, Operation.CHMOD,
)


@pytest.fixture
def touched(monkeypatch) -> Counter:
    """Positions handed to ``Table.filter_positions``, per table name."""
    counts: Counter = Counter()
    original = Table.filter_positions

    def spy(self, predicate, positions=None):
        counts[self.name] += len(self) if positions is None else len(positions)
        return original(self, predicate, positions)

    monkeypatch.setattr(Table, "filter_positions", spy)
    return counts


def _windowed_store(noise_copies: int) -> RelationalDatabase:
    """Five ``/bin/tar`` reads inside the window, ``noise_copies`` blocks of
    other processes operating on other files before it."""
    tar = ProcessEntity(entity_id=1, exename="/bin/tar", pid=1)
    secrets = [FileEntity(entity_id=2 + index, name=f"/etc/secret{index}") for index in range(5)]
    entities = [tar, *secrets]
    events = [
        SystemEvent(index + 1, tar.entity_id, secret.entity_id, Operation.READ,
                    EntityType.FILE, _WINDOW.start + index, _WINDOW.start + index)
        for index, secret in enumerate(secrets)
    ]
    for copy in range(noise_copies):
        base = 1_000 * (copy + 1)
        procs = [
            ProcessEntity(entity_id=base + index, exename=f"/usr/bin/tar{index}", pid=base + index)
            for index in range(10)
        ]
        files = [
            FileEntity(entity_id=base + 10 + index, name=f"/var/f{index}") for index in range(10)
        ]
        entities += procs + files
        for index in range(60):
            start = base + index
            events.append(
                SystemEvent(base + index, procs[index % 10].entity_id, files[index % 10].entity_id,
                            _FILE_OPERATIONS[index % 6], EntityType.FILE, start, start)
            )
    database = RelationalDatabase()
    database.append_batch(entities, events)
    return database


def test_windowed_query_work_does_not_grow_with_the_store(touched: Counter):
    pattern = parse_query('proc p["%tar%"] read file f as evt return p, f').patterns[0]
    query = constrain_select(compile_select(pattern), _WINDOW, None, None)
    work = []
    for copies in (1, 8):
        database = _windowed_store(copies)
        touched.clear()
        result = database.execute(query)
        assert sorted(result.column("event.id")) == [1, 2, 3, 4, 5]
        work.append(dict(touched))
    small, large = work
    # e: the window's five events; s, o: the five keys those events bind.
    assert small == large
    assert sum(large.values()) <= 5 + 1 + 5


def test_quiet_standing_hunt_touches_what_each_batch_appends(touched: Counter):
    batch_size, batches = 48, 12
    store = AuditStore(apply_reduction=False)
    monitor = QueryMonitor(TBQLExecutionEngine(store).prepare)
    standing = monitor.register(
        "quiet", 'proc p["%/bin/nc%"] read file f["%shadow%"] as evt return p, f'
    )
    per_batch = []
    for batch in range(batches):
        base = 10_000 * (batch + 1)
        procs = [
            ProcessEntity(entity_id=base + index, exename=f"/usr/bin/app{index}", pid=base + index)
            for index in range(4)
        ]
        files = [FileEntity(entity_id=base + 10 + index, name=f"/srv/{batch}/{index}")
                 for index in range(8)]
        events = [
            SystemEvent(base + index, procs[index % 4].entity_id, files[index % 8].entity_id,
                        _FILE_OPERATIONS[index % 6], EntityType.FILE, base + index, base + index)
            for index in range(batch_size)
        ]
        store.append_batch(procs + files, events)
        touched.clear()
        assert monitor.evaluate(batch, None if batch == 0 else base) == []
        per_batch.append(sum(touched.values()))
    assert (standing.evaluations, standing.errors) == (batches, 0)
    # Past the first (full) pass, each evaluation is bounded by the batch,
    # however many batches the store already holds.
    assert max(per_batch[1:]) <= 2 * batch_size, per_batch
