"""Tests for standing-query monitoring: windowing, dedup, sink detection."""

from __future__ import annotations

import pytest

from repro.streaming.monitor import MAX_TIME_NS, QueryMonitor
from repro.tbql.ast import TimeWindow
from repro.tbql.parser import parse_query

_CHAIN_QUERY = """
proc p1["%tar%"] read file f1["%passwd%"] as evt1
proc p1 write file f2["%upload%"] as evt2
proc p2["%curl%"] read file f2 as evt3
with evt1 before evt2, evt2 before evt3
return p1, f1, f2, p2
"""

_UNORDERED_QUERY = """
proc p1["%tar%"] read file f1["%passwd%"] as evt1
proc p2["%curl%"] read file f2["%upload%"] as evt2
return p1, p2
"""


def _noop_execute(query):  # pragma: no cover - only used for registration tests
    raise AssertionError("not expected to execute")


class TestTemporalSink:
    def test_chain_query_has_final_sink(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert standing.sink_event_id == "evt3"

    def test_single_pattern_is_its_own_sink(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("single", 'proc p read file f as e return p, f')
        assert standing.sink_event_id == "e"

    def test_unordered_query_has_no_sink(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("unordered", _UNORDERED_QUERY)
        assert standing.sink_event_id is None

    def test_partial_order_without_unique_sink(self):
        query = """
        proc p1["%a%"] read file f1["%x%"] as evt1
        proc p2["%b%"] read file f2["%y%"] as evt2
        proc p3["%c%"] read file f3["%z%"] as evt3
        with evt1 before evt2
        return p1, p2, p3
        """
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("partial", query)
        # evt2 and evt3 are both maximal: windowing would be unsound.
        assert standing.sink_event_id is None


class TestWindowing:
    def test_sink_pattern_gets_watermark_window(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        standing._initialized = True
        windowed = monitor._windowed_query(standing, 12345)
        by_id = {pattern.event_id: pattern for pattern in windowed.patterns}
        assert by_id["evt3"].window == TimeWindow(start=12345, end=MAX_TIME_NS)
        assert by_id["evt1"].window is None
        assert by_id["evt2"].window is None

    def test_existing_window_is_intersected(self):
        query = parse_query(
            'proc p["%tar%"] read file f["%passwd%"] as e during (100, 500) return p, f'
        )
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("windowed", query)
        standing._initialized = True
        narrowed = monitor._windowed_query(standing, 250)
        assert narrowed.patterns[0].window == TimeWindow(start=250, end=500)

    def test_first_evaluation_is_unwindowed(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert monitor._windowed_query(standing, 12345) is standing.query

    def test_no_watermark_means_full_query(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        standing._initialized = True
        assert monitor._windowed_query(standing, None) is standing.query


class TestRegistration:
    def test_duplicate_name_rejected(self):
        monitor = QueryMonitor(_noop_execute)
        monitor.register("chain", _CHAIN_QUERY)
        with pytest.raises(ValueError):
            monitor.register("chain", _CHAIN_QUERY)

    def test_unregister(self):
        monitor = QueryMonitor(_noop_execute)
        monitor.register("chain", _CHAIN_QUERY)
        monitor.unregister("chain")
        assert monitor.queries == []

    def test_without_prepare_no_prepared_query(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert standing.prepared is None


class TestPreparedStandingQueries:
    @staticmethod
    def _loaded_store():
        from repro.auditing.workload.attacks import Figure2DataLeakageChain
        from repro.auditing.workload.base import ScenarioBuilder
        from repro.auditing.workload.benign import SoftwareUpdateWorkload
        from repro.storage.loader import AuditStore

        builder = ScenarioBuilder(seed=31)
        SoftwareUpdateWorkload(packages=2).generate(builder)
        Figure2DataLeakageChain().generate(builder)
        store = AuditStore()
        store.load_trace(builder.build())
        return store

    def test_register_with_prepare_builds_prepared_query(self):
        from repro.tbql.executor import TBQLExecutionEngine

        engine = TBQLExecutionEngine(self._loaded_store())
        monitor = QueryMonitor(engine.execute, prepare=engine.prepare)
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert standing.prepared is not None
        # The temporal sink is hinted as windowed at prepare time.
        assert standing.prepared.window_hints == ("evt3",)

    def test_prepared_and_unprepared_raise_identical_alerts(self):
        from repro.tbql.executor import TBQLExecutionEngine

        hunt = """
        proc p1["%tar%"] read file f1["%passwd%"] as evt1
        proc p1 write file f2["%upload%"] as evt2
        with evt1 before evt2
        return p1, f1, f2
        """

        def run(prepare: bool):
            engine = TBQLExecutionEngine(self._loaded_store())
            monitor = QueryMonitor(
                engine.execute, prepare=engine.prepare if prepare else None
            )
            monitor.register("chain", hunt)
            alerts = monitor.evaluate(0, None)  # initializing full pass
            alerts += monitor.evaluate(1, 0)  # windowed steady-state pass
            return sorted(alert.matched_event_ids for alert in alerts)

        prepared_alerts = run(prepare=True)
        assert prepared_alerts == run(prepare=False)
        assert len(prepared_alerts) >= 1

    def test_window_overrides_match_windowed_query_shape(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        standing._initialized = True
        overrides = monitor._window_overrides(standing, 12345)
        assert overrides == {"evt3": TimeWindow(start=12345, end=MAX_TIME_NS)}
        windowed = monitor._windowed_query(standing, 12345)
        by_id = {pattern.event_id: pattern for pattern in windowed.patterns}
        assert by_id["evt3"].window == overrides["evt3"]

    def test_window_overrides_respect_existing_window(self):
        query = parse_query(
            'proc p["%tar%"] read file f["%passwd%"] as e during (100, 500) return p, f'
        )
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("windowed", query)
        standing._initialized = True
        overrides = monitor._window_overrides(standing, 250)
        assert overrides == {"e": TimeWindow(start=250, end=500)}

    def test_no_overrides_before_initialization(self):
        monitor = QueryMonitor(_noop_execute)
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert monitor._window_overrides(standing, 12345) is None


class TestGraphStandingHuntIsDeltaSeeded:
    def test_one_fresh_alert_per_batch_from_a_window_seeded_search(self):
        """A graph hunt fed batch by batch alerts once per planted chain, and
        after the first pass searches from the watermark window's new edges."""
        from repro.auditing.entities import FileEntity, ProcessEntity
        from repro.auditing.events import EntityType, Operation, SystemEvent
        from repro.storage.loader import AuditStore
        from repro.tbql.executor import TBQLExecutionEngine

        store = AuditStore(apply_reduction=False)
        engine = TBQLExecutionEngine(store, backend="graph")
        monitor = QueryMonitor(engine.execute, prepare=engine.prepare)
        standing = monitor.register(
            "staging",
            'proc p["%/bin/bash%"] ~>(2~3)[write] file f["%/tmp/staging/%"] as e '
            "return distinct p, f",
        )
        for index in range(4):
            first, start = 100 * index + 1, 1_000 * index
            bash = ProcessEntity(entity_id=first, exename="/bin/bash", pid=first)
            helper = ProcessEntity(entity_id=first + 1, exename="/usr/bin/python3", pid=first + 1)
            staged = FileEntity(entity_id=first + 2, name=f"/tmp/staging/batch{index}.tar")
            noise = FileEntity(entity_id=first + 3, name=f"/var/cache/noise{index}.dat")
            events = [
                SystemEvent(first, bash.entity_id, noise.entity_id, Operation.READ,
                            EntityType.FILE, start, start + 1),
                SystemEvent(first + 1, bash.entity_id, helper.entity_id, Operation.FORK,
                            EntityType.PROCESS, start + 10, start + 11),
                SystemEvent(first + 2, helper.entity_id, staged.entity_id, Operation.WRITE,
                            EntityType.FILE, start + 20, start + 21),
            ]
            store.append_batch([bash, helper, staged, noise], events)
            alerts = monitor.evaluate(index, None if index == 0 else start)
            assert [alert.matched_event_ids for alert in alerts] == [(first + 1, first + 2)]
        assert standing.last_graph_plans["e"]["strategy"] == "window-seeded"
