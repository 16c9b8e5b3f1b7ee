"""Tests for prepared TBQL queries and their per-pattern compiled templates."""

from __future__ import annotations

import pytest

from repro.auditing.workload.attacks import Figure2DataLeakageChain
from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import SoftwareUpdateWorkload
from repro.storage.loader import AuditStore
from repro.tbql.ast import TimeWindow
from repro.tbql.executor import TBQLExecutionEngine
from repro.tbql.parser import parse_query

TWO_PATTERN_QUERY = """
proc p["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
proc p write file f2["%/tmp/upload.tar%"] as e2
with e1 before e2
return distinct p, f1, f2
"""

SINGLE_PATTERN_QUERY = 'proc p["%/bin/tar%"] read file f as e1 return distinct p, f'


@pytest.fixture(scope="module")
def store() -> AuditStore:
    builder = ScenarioBuilder(seed=23)
    SoftwareUpdateWorkload(packages=3).generate(builder)
    Figure2DataLeakageChain().generate(builder)
    audit_store = AuditStore()
    audit_store.load_trace(builder.build())
    return audit_store


@pytest.fixture(scope="module")
def engine(store) -> TBQLExecutionEngine:
    return TBQLExecutionEngine(store)


class TestPreparedExecution:
    def test_prepared_matches_direct_execution(self, engine):
        prepared = engine.prepare(TWO_PATTERN_QUERY)
        direct = engine.execute(TWO_PATTERN_QUERY)
        via_prepared = prepared.execute()
        assert set(via_prepared.rows) == set(direct.rows)
        assert via_prepared.columns == direct.columns
        assert via_prepared.all_matched_event_ids() == direct.all_matched_event_ids()

    def test_prepared_accepts_source_text_and_ast(self, engine):
        from_text = engine.prepare(SINGLE_PATTERN_QUERY)
        from_ast = engine.prepare(parse_query(SINGLE_PATTERN_QUERY))
        assert set(from_text.execute().rows) == set(from_ast.execute().rows)

    def test_repeated_execution_is_stable(self, engine):
        prepared = engine.prepare(TWO_PATTERN_QUERY)
        first = prepared.execute()
        second = prepared.execute()
        third = prepared.execute()
        assert set(first.rows) == set(second.rows) == set(third.rows)

    def test_unoptimized_prepared_matches_optimized(self, engine):
        optimized = engine.prepare(TWO_PATTERN_QUERY, optimize=True).execute()
        unoptimized = engine.prepare(TWO_PATTERN_QUERY, optimize=False).execute()
        assert set(optimized.rows) == set(unoptimized.rows)

    def test_statistics_mark_prepared_runs(self, engine):
        prepared = engine.prepare(SINGLE_PATTERN_QUERY)
        result = prepared.execute()
        assert result.statistics["prepared"] is True
        assert "plan_cache" in result.statistics
        assert result.statistics["result_rows"] == len(result.rows)


class TestAdhocRunsThePreparedPath:
    """``execute`` and ``prepare().execute()`` are one pattern-execution path."""

    @pytest.fixture(scope="class")
    def campaign_stores(self):
        from repro.scenarios import generate_campaigns

        stores = []
        for campaign in generate_campaigns(8, base_seed=1200):
            audit_store = AuditStore()
            audit_store.load_trace(campaign.trace)
            stores.append((campaign, audit_store))
        return stores

    @pytest.mark.parametrize("backend", ["auto", "graph"])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_campaign_hunts_answer_identically(self, campaign_stores, backend, optimize):
        for campaign, audit_store in campaign_stores:
            engine = TBQLExecutionEngine(audit_store, backend=backend)
            for hunt in campaign.hunts:
                adhoc = engine.execute(hunt.query_text, optimize=optimize)
                prepared = engine.prepare(hunt.query_text, optimize=optimize).execute()
                assert adhoc.rows == prepared.rows
                assert adhoc.all_matched_event_ids() == prepared.all_matched_event_ids()
                assert adhoc.all_matched_event_ids() == hunt.expected_event_ids
                assert adhoc.statistics["schedule"] == prepared.statistics["schedule"]
                # CLI and explain output of ad-hoc runs must not change.
                assert "prepared" not in adhoc.statistics
                assert "plan_cache" not in adhoc.statistics


class TestPlanCache:
    def test_templates_compiled_once_and_hit_afterwards(self, engine):
        prepared = engine.prepare(TWO_PATTERN_QUERY)
        prepared.execute()
        info_after_first = prepared.cache_info()
        assert info_after_first["misses"] >= 1
        assert info_after_first["templates"] >= 1
        prepared.execute()
        prepared.execute()
        info = prepared.cache_info()
        assert info["templates"] == info_after_first["templates"]
        assert info["hits"] > 0

    def test_window_override_reuses_the_template(self, engine):
        prepared = engine.prepare(SINGLE_PATTERN_QUERY)
        prepared.execute()
        assert prepared.cache_info() == {"templates": 1, "hits": 0, "misses": 1}
        prepared.execute(window_overrides={"e1": TimeWindow(0, 2**62)})
        prepared.execute(window_overrides={"e1": TimeWindow(5, 2**62)})
        # One template whatever the execution attaches; no per-shape level.
        assert prepared.cache_info() == {"templates": 1, "hits": 2, "misses": 1}

    def test_templates_compile_lazily(self, engine):
        """A pattern early termination never reaches is never compiled."""
        prepared = engine.prepare(
            'proc p["%/no/such/exe%"] read file f1 as e1 '
            "proc p write file f2 as e2 with e1 before e2 return p, f1, f2"
        )
        assert prepared.cache_info()["templates"] == 0
        assert len(prepared.execute()) == 0
        assert prepared.cache_info() == {"templates": 1, "hits": 0, "misses": 1}

    def test_standing_hunt_compiles_each_pattern_once(self, monkeypatch):
        """≥ 10 batches, one compile per pattern, hits + misses = pattern executions."""
        from repro.core.pipeline import ThreatRaptor
        from repro.scenarios import generate_campaigns
        from repro.storage.graph.planner import CostGuidedPathMatcher
        from repro.streaming.source import ReplaySource
        from repro.tbql import prepared as prepared_module

        campaign = generate_campaigns(1, base_seed=1200)[0]
        raptor = ThreatRaptor()
        compiled: list[str] = []
        executed: list[object] = []
        for name in ("compile_select", "build_path_pattern"):
            compile_pattern = getattr(prepared_module, name)

            def counting(pattern, compile_pattern=compile_pattern):
                compiled.append(pattern.event_id)
                return compile_pattern(pattern)

            monkeypatch.setattr(prepared_module, name, counting)
        relational_execute = raptor.store.relational.execute
        graph_match = CostGuidedPathMatcher.match
        monkeypatch.setattr(
            raptor.store.relational,
            "execute",
            lambda query: executed.append(query) or relational_execute(query),
        )
        monkeypatch.setattr(
            CostGuidedPathMatcher,
            "match",
            lambda matcher, pattern: executed.append(pattern) or graph_match(matcher, pattern),
        )

        service = raptor.watch(batch_size=32)
        for hunt in campaign.hunts:
            service.register_hunt(hunt.name, query=hunt.query_text)
        service.register_hunt(
            "path",
            query=(
                f'proc s["%{campaign.spec.shell}%"] ~>(1~3)[write] '
                f'file f["%{campaign.spec.tool_path}%"] as v1 return distinct s, f'
            ),
        )
        service.run(ReplaySource(campaign.trace))

        assert min(standing.evaluations for standing in service.hunts) >= 10
        patterns = [
            pattern.event_id for standing in service.hunts for pattern in standing.query.patterns
        ]
        assert sorted(compiled) == sorted(patterns)
        infos = [standing.prepared.cache_info() for standing in service.hunts]
        assert sum(info["templates"] for info in infos) == len(patterns)
        assert sum(info["hits"] + info["misses"] for info in infos) == len(executed)
        assert all("shapes" not in info for info in infos)


def _median_start_time(store) -> int:
    starts = sorted(store.relational.table("events").column_array("starttime"))
    return starts[len(starts) // 2]


class TestWindowOverrides:
    def test_override_narrows_results_like_a_windowed_query(self, engine, store):
        prepared = engine.prepare(SINGLE_PATTERN_QUERY)
        everything = prepared.execute()
        assert len(everything) >= 1
        # A window ending before the trace starts excludes every match.
        nothing = prepared.execute(window_overrides={"e1": TimeWindow(0, 1)})
        assert len(nothing) == 0
        # A window spanning the whole trace changes nothing.
        unbounded = prepared.execute(
            window_overrides={"e1": TimeWindow(0, 2**62)}
        )
        assert set(unbounded.rows) == set(everything.rows)

    def test_override_matches_explicitly_windowed_query(self, engine, store):
        cutoff = _median_start_time(store)
        prepared = engine.prepare(SINGLE_PATTERN_QUERY)
        overridden = prepared.execute(
            window_overrides={"e1": TimeWindow(cutoff, 2**62)}
        )
        windowed_text = SINGLE_PATTERN_QUERY.replace(
            "as e1", f"as e1 during ({cutoff}, {2**62})"
        )
        direct = engine.execute(windowed_text)
        assert set(overridden.rows) == set(direct.rows)

    def test_window_hints_do_not_change_results(self, engine):
        # e1 and e2 both carry two declared constraints; hinting e2 as
        # windowed raises its pruning score above e1's, so the schedule flips
        # from declaration order to sink-first.
        query = (
            'proc p["%/bin/tar%"] read file f1 as e1 '
            'proc p write file f2["%/tmp/upload.tar%"] as e2 '
            "with e1 before e2 return distinct p, f1, f2"
        )
        hinted = engine.prepare(query, window_hints=("e2",))
        plain = engine.prepare(query)
        assert set(hinted.execute().rows) == set(plain.execute().rows)
        assert plain.schedule[0].pattern.event_id == "e1"
        # The hinted sink is scheduled as if windowed: it runs first.
        assert hinted.schedule[0].pattern.event_id == "e2"
        # Execution patterns are the originals, not placeholder-windowed ones.
        assert all(
            step.pattern in hinted.query.patterns for step in hinted.schedule
        )


PATH_QUERY = 'proc p["%/bin/tar%"] ~>(1~3)[write] file f["%/tmp/upload.tar%"] as e return distinct p, f'


class TestGraphPlanCache:
    """Patterns routed to the graph backend keep their template the same way."""

    @pytest.fixture()
    def graph_engine(self, store) -> TBQLExecutionEngine:
        return TBQLExecutionEngine(store, backend="graph")

    def test_path_pattern_template_compiled_once(self, engine):
        prepared = engine.prepare(PATH_QUERY)
        direct = engine.execute(PATH_QUERY)
        first = prepared.execute()
        assert set(first.rows) == set(direct.rows)
        info_after_first = prepared.cache_info()
        assert info_after_first["templates"] == 1
        prepared.execute()
        prepared.execute()
        info = prepared.cache_info()
        assert info["templates"] == 1
        assert info["hits"] >= 2

    def test_graph_backend_event_patterns_use_the_cache(self, graph_engine):
        """Regression: ``backend="graph"`` used to bypass the prepared plan
        cache entirely, recompiling node/edge predicates every execution."""
        prepared = graph_engine.prepare(TWO_PATTERN_QUERY)
        direct = graph_engine.execute(TWO_PATTERN_QUERY)
        result = prepared.execute()
        assert set(result.rows) == set(direct.rows)
        assert prepared.cache_info()["templates"] >= 1
        hits_before = prepared.cache_info()["hits"]
        prepared.execute()
        assert prepared.cache_info()["hits"] > hits_before

    def test_window_override_reaches_the_graph_pattern(self, graph_engine, store):
        cutoff = _median_start_time(store)
        prepared = graph_engine.prepare(SINGLE_PATTERN_QUERY)
        everything = prepared.execute()
        windowed = prepared.execute(
            window_overrides={"e1": TimeWindow(cutoff, 2**62)}
        )
        windowed_text = SINGLE_PATTERN_QUERY.replace(
            "as e1", f"as e1 during ({cutoff}, {2**62})"
        )
        direct = graph_engine.execute(windowed_text)
        assert set(windowed.rows) == set(direct.rows)
        assert len(windowed.rows) <= len(everything.rows)

    def test_graph_template_is_not_mutated_by_constraints(self, graph_engine):
        prepared = graph_engine.prepare(SINGLE_PATTERN_QUERY)
        baseline = set(prepared.execute().rows)
        # A constrained shape must not leak its window into the cached template.
        prepared.execute(window_overrides={"e1": TimeWindow(0, 1)})
        assert set(prepared.execute().rows) == baseline
