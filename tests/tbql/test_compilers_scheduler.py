"""Unit tests for the pattern compile functions and the execution scheduler."""

from __future__ import annotations

import pytest

from repro.auditing.entities import EntityType
from repro.storage.graph.cypher import render_path_pattern
from repro.storage.graph.model import Edge, Node
from repro.storage.loader import AuditStore
from repro.storage.sql.render import render_select_query
from repro.tbql.ast import FilterOperator
from repro.tbql.compiler import (
    build_path_pattern,
    compile_select,
    constrain_path_pattern,
    constrain_select,
)
from repro.tbql.executor import TBQLExecutionEngine
from repro.tbql.filters import (
    comparison_to_expression,
    constraint_count,
    filter_to_expression,
    filter_to_predicate,
)
from repro.tbql.ast import AttributeComparison, FilterExpression
from repro.tbql.parser import parse_query
from repro.tbql.scheduler import ExecutionScheduler, pruning_score


def render_select(query) -> str:
    return render_select_query(query, parameterized=False, pretty=True).text


def _first_pattern(source: str):
    return parse_query(source).patterns[0]


def _prepared(source: str):
    return TBQLExecutionEngine(AuditStore()).prepare(source)


class TestFilterBridging:
    def test_default_attribute_resolution(self):
        comparison = AttributeComparison(attribute="", operator=FilterOperator.EQ, value="%/bin/tar%")
        expression = comparison_to_expression(comparison, EntityType.PROCESS)
        assert expression.evaluate({"exename": "/bin/tar"})
        assert not expression.evaluate({"exename": "/bin/cat"})

    def test_wildcard_value_uses_like_even_with_eq(self):
        comparison = AttributeComparison(attribute="name", operator=FilterOperator.EQ, value="%upload%")
        expression = comparison_to_expression(comparison, EntityType.FILE)
        assert expression.evaluate({"name": "/tmp/upload.tar"})

    def test_numeric_comparison(self):
        comparison = AttributeComparison(attribute="pid", operator=FilterOperator.GT, value=100)
        expression = comparison_to_expression(comparison, EntityType.PROCESS)
        assert expression.evaluate({"pid": 101})
        assert not expression.evaluate({"pid": 99})

    def test_filter_expression_and(self):
        pattern = _first_pattern('proc p[pid > 100 and exename = "%sh%"] read file f as e return p')
        expression = filter_to_expression(pattern.subject.filter, EntityType.PROCESS)
        assert expression.evaluate({"pid": 200, "exename": "/bin/sh"})
        assert not expression.evaluate({"pid": 50, "exename": "/bin/sh"})

    def test_filter_expression_or(self):
        pattern = _first_pattern('proc p["%tar%" or "%curl%"] read file f as e return p')
        expression = filter_to_expression(pattern.subject.filter, EntityType.PROCESS)
        assert expression.evaluate({"exename": "/usr/bin/curl"})
        assert expression.evaluate({"exename": "/bin/tar"})
        assert not expression.evaluate({"exename": "/usr/bin/gpg"})

    def test_none_filter_is_true(self):
        expression = filter_to_expression(None, EntityType.FILE)
        assert expression.evaluate({})

    def test_predicate_handles_missing_attribute(self):
        pattern = _first_pattern('proc p["%tar%"] read file f as e return p')
        predicate = filter_to_predicate(pattern.subject.filter, EntityType.PROCESS)
        assert not predicate({})

    def test_constraint_count(self):
        pattern = _first_pattern('proc p[pid > 100 and exename = "%sh%"] read file f["%x%"] as e return p')
        assert constraint_count(pattern.subject.filter) == 2
        assert constraint_count(pattern.obj.filter) == 1
        assert constraint_count(None) == 0


class TestCompileSelect:
    def test_joins_entities_with_events(self):
        pattern = _first_pattern('proc p["%tar%"] read file f["%passwd%"] as e return p, f')
        sql = render_select(compile_select(pattern))
        assert "FROM events e, entities s, entities o" in sql
        assert "e.srcid = s.id" in sql and "e.dstid = o.id" in sql
        assert "s.type = 'process'" in sql and "o.type = 'file'" in sql
        assert "optype = 'read'" in sql

    def test_event_type_filter_matches_object(self):
        pattern = _first_pattern('proc p connect ip i["1.2.3.4"] as e return p')
        assert "eventtype = 'network'" in render_select(compile_select(pattern))

    def test_multiple_operations_render_as_in_list(self):
        pattern = _first_pattern("proc p read or write file f as e return p")
        assert "IN ('read', 'write')" in render_select(compile_select(pattern))

    def test_template_is_windowless_and_window_is_attached(self):
        pattern = _first_pattern("proc p read file f as e during (100, 200) return p")
        template = compile_select(pattern)
        assert "BETWEEN" not in render_select(template)
        windowed = constrain_select(template, pattern.window, None, None)
        assert "BETWEEN 100 AND 200" in render_select(windowed)
        assert "BETWEEN" not in render_select(template)  # the template is not touched

    def test_id_constraints_added(self):
        pattern = _first_pattern("proc p read file f as e return p")
        sql = render_select(constrain_select(compile_select(pattern), None, [5, 3, 5], [7]))
        assert "s.id IN (3, 5)" in sql
        assert "e.srcid IN (3, 5)" in sql
        assert "o.id IN (7)" in sql
        assert "e.dstid IN (7)" in sql

    def test_prepared_query_attaches_the_same_constraints(self):
        prepared = _prepared("proc p read file f as e during (100, 200) return p")
        pattern = prepared.query.patterns[0]
        query = prepared.relational_query(pattern, pattern.window, [5, 3, 5], None)
        expected = constrain_select(compile_select(pattern), pattern.window, [3, 5], None)
        assert render_select(query) == render_select(expected)

    def test_projection_exposes_entity_and_event_columns(self):
        pattern = _first_pattern("proc p read file f as e return p")
        names = {output.output_name for output in compile_select(pattern).projection}
        assert {"event.id", "subject.exename", "object.name", "event.starttime"} <= names


class TestBuildPathPattern:
    def test_path_pattern_lengths(self):
        pattern = _first_pattern("proc p ~>(2~4)[read] file f as e return p")
        graph_pattern = build_path_pattern(pattern)
        assert graph_pattern.min_length == 2
        assert graph_pattern.max_length == 4
        assert graph_pattern.final_edge.relationship == "read"
        assert "MATCH" in render_path_pattern(graph_pattern)

    def test_event_pattern_is_single_hop(self):
        pattern = _first_pattern('proc p["%tar%"] read file f as e return p')
        graph_pattern = build_path_pattern(pattern)
        assert (graph_pattern.min_length, graph_pattern.max_length) == (1, 1)
        assert graph_pattern.source.label == "process"
        assert graph_pattern.target.label == "file"

    def test_node_predicate_applies_filter(self):
        pattern = _first_pattern('proc p["%tar%"] read file f as e return p')
        graph_pattern = build_path_pattern(pattern)
        matching = Node(node_id=1, label="process", properties={"exename": "/bin/tar"})
        not_matching = Node(node_id=2, label="process", properties={"exename": "/bin/cat"})
        assert graph_pattern.source.matches(matching)
        assert not graph_pattern.source.matches(not_matching)

    @pytest.mark.parametrize(
        "operation, matching",
        [
            ("read", {"read"}),
            ("read || write", {"read", "write"}),
            ("not read", {"write", "execute"}),
            ("not read || write", {"execute"}),
        ],
    )
    def test_final_edge_matches_the_declared_operations(self, operation, matching):
        pattern = _first_pattern(f"proc p {operation} file f as e return p")
        final_edge = build_path_pattern(pattern).final_edge
        matched = {
            relationship
            for relationship in ("read", "write", "execute")
            if final_edge.matches(Edge(1, 1, 2, relationship, {"starttime": 1, "endtime": 2}))
        }
        assert matched == matching

    def test_id_constraint_restricts_nodes(self):
        prepared = _prepared("proc p read file f as e return p")
        graph_pattern = prepared.graph_query(prepared.query.patterns[0], None, [10], None)
        assert graph_pattern.source.allowed_ids == frozenset({10})
        assert graph_pattern.target.allowed_ids is None
        allowed = Node(node_id=10, label="process", properties={"exename": "/bin/x"})
        denied = Node(node_id=11, label="process", properties={"exename": "/bin/x"})
        assert graph_pattern.source.matches(allowed)
        assert not graph_pattern.source.matches(denied)

    def test_template_is_windowless_and_window_is_attached(self):
        pattern = _first_pattern("proc p read file f as e during (100, 200) return p")
        template = build_path_pattern(pattern)
        assert template.final_edge.window is None
        assert constrain_path_pattern(template, None, None, None) is template
        final_edge = constrain_path_pattern(template, pattern.window, None, None).final_edge
        inside = Edge(1, 1, 2, "read", {"starttime": 150, "endtime": 160})
        outside = Edge(2, 1, 2, "read", {"starttime": 500, "endtime": 600})
        assert final_edge.matches(inside)
        assert not final_edge.matches(outside)
        assert template.final_edge.matches(outside)


class TestScheduler:
    def test_pruning_score_counts_constraints(self):
        constrained = _first_pattern('proc p["%tar%"] read file f["%passwd%"] as e return p')
        bare = _first_pattern("proc p read file f as e return p")
        assert pruning_score(constrained) > pruning_score(bare)

    def test_path_patterns_penalised(self):
        event = _first_pattern('proc p["%tar%"] read file f["%x%"] as e return p')
        path = _first_pattern('proc p["%tar%"] ~>(1~4)[read] file f["%x%"] as e return p')
        assert pruning_score(event) > pruning_score(path)

    def test_shorter_paths_score_higher(self):
        short = _first_pattern('proc p["%tar%"] ~>(1~2)[read] file f as e return p')
        long = _first_pattern('proc p["%tar%"] ~>(1~6)[read] file f as e return p')
        assert pruning_score(short) > pruning_score(long)

    def test_most_constrained_pattern_runs_first(self):
        query = parse_query(
            "proc p read file f as e1 "
            'proc q["%curl%"] connect ip i["1.2.3.4"] as e2 '
            "return p, q"
        )
        schedule = ExecutionScheduler().schedule(query)
        assert schedule[0].pattern.event_id == "e2"

    def test_connected_patterns_preferred_and_constrained(self):
        query = parse_query(
            'proc p["%tar%"] read file f["%passwd%"] as e1 '
            "proc p write file g as e2 "
            'proc z["%gpg%"] read file w as e3 '
            "return p, f, g, z, w"
        )
        schedule = ExecutionScheduler().schedule(query)
        assert schedule[0].pattern.event_id == "e1"
        second = schedule[1]
        # e2 shares p with e1, so it should run second with p constrained,
        # even though e3 has a higher raw score than e2.
        assert second.pattern.event_id == "e2"
        assert "p" in second.constrained_identifiers

    def test_unoptimized_schedule_keeps_declaration_order(self):
        query = parse_query(
            "proc p read file f as e1 "
            'proc q["%curl%"] connect ip i["1.2.3.4"] as e2 '
            "return p, q"
        )
        schedule = ExecutionScheduler().schedule_unoptimized(query)
        assert [step.pattern.event_id for step in schedule] == ["e1", "e2"]
        assert all(step.constrained_identifiers == () for step in schedule)

    def test_every_pattern_scheduled_exactly_once(self):
        from repro.data import FIGURE2_REPORT
        from repro.nlp.extractor import ThreatBehaviorExtractor
        from repro.tbql.synthesis import QuerySynthesizer

        graph = ThreatBehaviorExtractor().extract(FIGURE2_REPORT.text).graph
        query = QuerySynthesizer().synthesize(graph)
        schedule = ExecutionScheduler().schedule(query)
        assert sorted(step.pattern.event_id for step in schedule) == sorted(
            pattern.event_id for pattern in query.patterns
        )

    def test_duplicate_equal_patterns_break_ties_by_declaration_order(self):
        """Regression: `list.index` found the *first equal* pattern, so a
        duplicate declared last inherited its twin's declaration index and
        stole an earlier pattern's tie-break."""
        from repro.tbql.ast import Query

        base = parse_query(
            'proc p["%tar%"] read file x["%one%"] as e1 '
            'proc p["%tar%"] read file y["%two%"] as e2 '
            "return p, x, y"
        )
        first, second = base.patterns
        duplicate_of_first = parse_query(
            'proc p["%tar%"] read file x["%one%"] as e1 return p'
        ).patterns[0]
        assert duplicate_of_first == first and duplicate_of_first is not first

        query = Query(
            patterns=[first, second, duplicate_of_first],
            return_items=base.return_items,
        )
        schedule = ExecutionScheduler().schedule(query)
        assert len(schedule) == 3
        # All three patterns share `p` and tie on score, so after `first`
        # runs the tie between `second` and the duplicate must fall to
        # declaration order — the duplicate is scheduled last, not promoted
        # to its twin's declaration index.
        assert [id(step.pattern) for step in schedule] == [
            id(first),
            id(second),
            id(duplicate_of_first),
        ]
