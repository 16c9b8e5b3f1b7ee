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


class _StubPrepared:
    """What registration reads off a prepared query, for tests that never evaluate."""

    analysis = None

    def __init__(self, query, window_hints=()):
        self.query = query
        self.window_hints = window_hints


def _stub_monitor() -> QueryMonitor:
    return QueryMonitor(_StubPrepared)


class TestTemporalSink:
    def test_chain_query_has_final_sink(self):
        monitor = _stub_monitor()
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert standing.sink_event_id == "evt3"

    def test_single_pattern_is_its_own_sink(self):
        monitor = _stub_monitor()
        standing = monitor.register("single", 'proc p read file f as e return p, f')
        assert standing.sink_event_id == "e"

    def test_unordered_query_has_no_sink(self):
        monitor = _stub_monitor()
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
        monitor = _stub_monitor()
        standing = monitor.register("partial", query)
        # evt2 and evt3 are both maximal: windowing would be unsound.
        assert standing.sink_event_id is None


class TestWindowing:
    def test_sink_pattern_gets_watermark_window(self):
        monitor = _stub_monitor()
        standing = monitor.register("chain", _CHAIN_QUERY)
        standing._initialized = True
        overrides = monitor._window_overrides(standing, 12345)
        # Only the sink is narrowed; evt1/evt2 keep their declared (absent) windows.
        assert overrides == {"evt3": TimeWindow(start=12345, end=MAX_TIME_NS)}

    def test_existing_window_is_intersected(self):
        query = parse_query(
            'proc p["%tar%"] read file f["%passwd%"] as e during (100, 500) return p, f'
        )
        monitor = _stub_monitor()
        standing = monitor.register("windowed", query)
        standing._initialized = True
        assert monitor._window_overrides(standing, 250) == {"e": TimeWindow(start=250, end=500)}

    def test_first_evaluation_is_unwindowed(self):
        monitor = _stub_monitor()
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert monitor._window_overrides(standing, 12345) is None

    def test_no_watermark_means_full_query(self):
        monitor = _stub_monitor()
        standing = monitor.register("chain", _CHAIN_QUERY)
        standing._initialized = True
        assert monitor._window_overrides(standing, None) is None

    def test_hunt_without_a_sink_is_never_windowed(self):
        monitor = _stub_monitor()
        standing = monitor.register("unordered", _UNORDERED_QUERY)
        standing._initialized = True
        assert monitor._window_overrides(standing, 12345) is None


class TestRegistration:
    def test_duplicate_name_rejected(self):
        monitor = _stub_monitor()
        monitor.register("chain", _CHAIN_QUERY)
        with pytest.raises(ValueError):
            monitor.register("chain", _CHAIN_QUERY)

    def test_unregister(self):
        monitor = _stub_monitor()
        monitor.register("chain", _CHAIN_QUERY)
        monitor.unregister("chain")
        assert monitor.queries == []

    def test_every_hunt_is_prepared_with_its_sink_hinted(self):
        monitor = _stub_monitor()
        chain = monitor.register("chain", _CHAIN_QUERY)
        unordered = monitor.register("unordered", _UNORDERED_QUERY)
        assert chain.prepared.window_hints == ("evt3",)
        assert unordered.prepared.window_hints == ()

    @pytest.mark.parametrize(
        "arguments, keywords",
        [
            ((), {"execute": lambda query: None}),
            ((_StubPrepared,), {"analyze": lambda query: None}),
        ],
    )
    def test_removed_constructor_parameters_are_type_errors(self, arguments, keywords):
        with pytest.raises(TypeError):
            QueryMonitor(*arguments, **keywords)


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
        monitor = QueryMonitor(engine.prepare)
        standing = monitor.register("chain", _CHAIN_QUERY)
        assert standing.prepared is not None
        # The temporal sink is hinted as windowed at prepare time.
        assert standing.prepared.window_hints == ("evt3",)

    def test_windowed_standing_evaluation_matches_adhoc_execution(self):
        from repro.tbql.executor import TBQLExecutionEngine

        hunt = """
        proc p1["%tar%"] read file f1["%passwd%"] as evt1
        proc p1 write file f2["%upload%"] as evt2
        with evt1 before evt2
        return p1, f1, f2
        """
        engine = TBQLExecutionEngine(self._loaded_store())
        monitor = QueryMonitor(engine.prepare)
        monitor.register("chain", hunt)
        alerts = monitor.evaluate(0, None)  # initializing full pass
        alerts += monitor.evaluate(1, 0)  # windowed steady-state pass: nothing new
        matched = {event_id for alert in alerts for event_id in alert.matched_event_ids}
        assert len(alerts) >= 1
        assert matched == engine.execute(hunt).all_matched_event_ids()


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
        monitor = QueryMonitor(engine.prepare)
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
