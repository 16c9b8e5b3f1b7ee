"""Unit tests for standing-hunt provenance plumbing."""

from __future__ import annotations

import pytest

from repro.streaming.alerts import Alert
from repro.streaming.monitor import QueryMonitor
from repro.tbql.parser import parse_query

_QUERY = 'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e return p, f'


class _NeverExecuted:
    """A prepared-query stub: these tests only exercise registration."""

    analysis = None

    def execute(self, window_overrides=None):
        pytest.fail("should not execute")


def _monitor() -> QueryMonitor:
    return QueryMonitor(lambda query, window_hints=(): _NeverExecuted())


class TestMonitorProvenance:
    def test_register_records_provenance_and_key(self):
        monitor = _monitor()
        standing = monitor.register(
            "hunt", _QUERY, provenance=("r1", "r2"), canonical_key="KEY"
        )
        assert standing.provenance == ("r1", "r2")
        assert standing.canonical_key == "KEY"
        assert monitor.by_canonical_key("KEY") is standing
        assert monitor.by_canonical_key("OTHER") is None

    def test_extend_provenance_skips_duplicates(self):
        monitor = _monitor()
        monitor.register("hunt", _QUERY, provenance=("r1",))
        standing = monitor.extend_provenance("hunt", ["r1", "r2", "r2", "r3"])
        assert standing.provenance == ("r1", "r2", "r3")

    def test_default_registration_has_no_provenance(self):
        monitor = _monitor()
        standing = monitor.register("hunt", parse_query(_QUERY))
        assert standing.provenance == ()
        assert standing.canonical_key is None


class TestAlertProvenance:
    def test_reports_default_empty_and_serialized(self):
        alert = Alert(
            hunt="h",
            batch_index=0,
            matched_event_ids=(1, 2),
            start_time_ns=0,
            end_time_ns=1,
        )
        assert alert.reports == ()
        assert alert.to_dict()["reports"] == []
        assert "reports=" not in alert.describe()

    def test_reports_rendered_when_present(self):
        alert = Alert(
            hunt="h",
            batch_index=0,
            matched_event_ids=(1,),
            start_time_ns=0,
            end_time_ns=1,
            reports=("r1", "r2"),
        )
        assert alert.to_dict()["reports"] == ["r1", "r2"]
        assert "reports=r1,r2" in alert.describe()
        # Alerts stay hashable with provenance attached.
        assert alert in {alert}


class TestCanonicalKeyIndex:
    def test_unregister_clears_canonical_routing(self):
        monitor = _monitor()
        monitor.register("hunt", _QUERY, canonical_key="KEY")
        monitor.unregister("hunt")
        assert monitor.by_canonical_key("KEY") is None

    def test_first_registration_wins_for_duplicate_keys(self):
        monitor = _monitor()
        first = monitor.register("first", _QUERY, canonical_key="KEY")
        monitor.register("second", _QUERY, canonical_key="KEY")
        assert monitor.by_canonical_key("KEY") is first
        monitor.unregister("second")
        assert monitor.by_canonical_key("KEY") is first

    def test_unregister_repoints_to_surviving_duplicate_key(self):
        monitor = _monitor()
        monitor.register("first", _QUERY, canonical_key="KEY")
        second = monitor.register("second", _QUERY, canonical_key="KEY")
        monitor.unregister("first")
        assert monitor.by_canonical_key("KEY") is second
