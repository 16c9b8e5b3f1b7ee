"""Unit tests for TBQL query synthesis and formatting."""

from __future__ import annotations

import pytest

from repro.auditing.entities import EntityType
from repro.data import ALL_REPORTS, FIGURE2_REPORT, report_by_name
from repro.errors import SynthesisError
from repro.nlp.behavior_graph import BehaviorEdge, BehaviorNode, ThreatBehaviorGraph
from repro.nlp.extractor import ThreatBehaviorExtractor
from repro.nlp.ioc import IOC, IOCType
from repro.storage.graph.cypher import render_path_pattern
from repro.storage.sql.render import render_select_query
from repro.tbql.ast import EventPattern, PathPattern
from repro.tbql.compiler import build_path_pattern, compile_select
from repro.tbql.formatter import count_query_lines, format_query
from repro.tbql.parser import parse_query
from repro.tbql.semantics import analyze
from repro.tbql.synthesis import QuerySynthesizer, SynthesisPlan


def _node(text: str, ioc_type: IOCType = IOCType.FILEPATH) -> BehaviorNode:
    return BehaviorNode(ioc=IOC(text, ioc_type))


def _graph(edges: list[tuple[BehaviorNode, str, BehaviorNode]]) -> ThreatBehaviorGraph:
    graph = ThreatBehaviorGraph()
    seen = {}
    for sequence, (subject, verb, obj) in enumerate(edges, start=1):
        for node in (subject, obj):
            key = node.ioc.normalized()
            if key not in seen:
                seen[key] = node
                graph.nodes.append(node)
        graph.edges.append(
            BehaviorEdge(subject=seen[subject.ioc.normalized()], verb=verb,
                         obj=seen[obj.ioc.normalized()], sequence=sequence)
        )
    return graph


@pytest.fixture(scope="module")
def figure2_graph():
    return ThreatBehaviorExtractor().extract(FIGURE2_REPORT.text).graph


class TestSynthesisFromFigure2:
    def test_eight_event_patterns(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        assert len(query.event_patterns()) == 8

    def test_operations_match_paper(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        operations = [pattern.operation.operations[0] for pattern in query.patterns]
        assert operations == ["read", "write", "read", "write", "read", "write", "read", "connect"]

    def test_entity_identifiers_follow_paper_convention(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        identifiers = query.entity_identifiers()
        assert identifiers[0] == "p1"
        assert "i1" in identifiers
        assert sum(1 for identifier in identifiers if identifier.startswith("f")) == 4
        assert sum(1 for identifier in identifiers if identifier.startswith("p")) == 4

    def test_entity_reuse_across_patterns(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        assert query.patterns[0].subject.identifier == query.patterns[1].subject.identifier
        assert query.patterns[1].obj.identifier == query.patterns[2].obj.identifier

    def test_temporal_chain(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        assert len(query.temporal_relations) == 7
        assert all(relation.relation == "before" for relation in query.temporal_relations)

    def test_wildcard_filters(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        value = query.patterns[0].subject.filter.comparisons()[0].value
        assert value == "%/bin/tar%"

    def test_ip_filter_not_wildcarded(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        last = query.patterns[-1]
        assert last.obj.entity_type is EntityType.NETWORK
        assert last.obj.filter.comparisons()[0].value == "192.168.29.128"

    def test_return_distinct_all_entities(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        assert query.distinct
        assert len(query.return_items) == 9

    def test_synthesized_query_passes_semantic_analysis(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        analyzed = analyze(query)
        assert len(analyzed.entities) == 9


class TestSynthesisRules:
    def test_screening_drops_non_auditable_iocs(self):
        graph = _graph(
            [
                (_node("/bin/tar"), "read", _node("/etc/passwd")),
                (_node("evil.com", IOCType.DOMAIN), "resolve", _node("1.2.3.4", IOCType.IP)),
            ]
        )
        report = QuerySynthesizer().synthesize_with_report(graph)
        assert report.kept_edges == 1
        assert report.dropped_edges == 1
        assert any(node.ioc_type is IOCType.DOMAIN for node in report.screened_nodes)

    def test_download_between_filepaths_maps_to_write(self):
        graph = _graph([(_node("/usr/bin/wget"), "download", _node("/tmp/crack"))])
        query = QuerySynthesizer().synthesize(graph)
        assert query.patterns[0].operation.operations == ("write",)

    def test_send_toward_ip_maps_to_send(self):
        graph = _graph([(_node("/usr/bin/curl"), "send", _node("1.2.3.4", IOCType.IP))])
        query = QuerySynthesizer().synthesize(graph)
        assert query.patterns[0].operation.operations == ("send",)

    def test_write_toward_ip_coerced_to_network_operation(self):
        graph = _graph([(_node("/usr/bin/curl"), "download", _node("1.2.3.4", IOCType.IP))])
        query = QuerySynthesizer().synthesize(graph)
        assert query.patterns[0].operation.operations[0] in ("send", "recv", "connect")

    def test_unknown_verb_gets_type_default(self):
        graph = _graph([(_node("/bin/x"), "frobnicate", _node("/tmp/y"))])
        query = QuerySynthesizer().synthesize(graph)
        assert query.patterns[0].operation.operations == ("read",)

    def test_empty_graph_raises(self):
        with pytest.raises(SynthesisError):
            QuerySynthesizer().synthesize(ThreatBehaviorGraph())

    def test_all_screened_raises(self):
        graph = _graph(
            [(_node("evil.com", IOCType.DOMAIN), "resolve", _node("a.com", IOCType.DOMAIN))]
        )
        with pytest.raises(SynthesisError):
            QuerySynthesizer().synthesize(graph)

    def test_path_pattern_plan(self, figure2_graph):
        plan = SynthesisPlan(use_path_patterns=True, path_min_length=1, path_max_length=3)
        query = QuerySynthesizer(plan).synthesize(figure2_graph)
        assert all(isinstance(pattern, PathPattern) for pattern in query.patterns)
        assert query.patterns[0].max_length == 3

    def test_time_window_plan(self, figure2_graph):
        plan = SynthesisPlan(time_window=(0, 10_000))
        query = QuerySynthesizer(plan).synthesize(figure2_graph)
        assert all(pattern.window is not None for pattern in query.patterns)

    def test_no_wildcard_plan(self):
        graph = _graph([(_node("/bin/tar"), "read", _node("/etc/passwd"))])
        query = QuerySynthesizer(SynthesisPlan(wildcard_filters=False)).synthesize(graph)
        assert query.patterns[0].subject.filter.comparisons()[0].value == "/bin/tar"

    def test_same_ioc_as_subject_and_object_gets_two_roles(self):
        graph = _graph(
            [
                (_node("/usr/bin/wget"), "download", _node("/tmp/crack")),
                (_node("/tmp/crack"), "read", _node("/etc/shadow")),
            ]
        )
        query = QuerySynthesizer().synthesize(graph)
        identifiers = query.entity_identifiers()
        # /tmp/crack appears once as a file object (f*) and once as a process subject (p*).
        assert len([i for i in identifiers if i.startswith("p")]) == 2
        assert len([i for i in identifiers if i.startswith("f")]) == 2


class TestFormatter:
    def test_figure2_roundtrip(self, figure2_graph):
        query = QuerySynthesizer().synthesize(figure2_graph)
        text = format_query(query)
        reparsed = parse_query(text)
        assert len(reparsed.patterns) == len(query.patterns)
        assert len(reparsed.temporal_relations) == len(query.temporal_relations)
        assert [item.identifier for item in reparsed.return_items] == [
            item.identifier for item in query.return_items
        ]

    def test_format_contains_paper_style_lines(self, figure2_graph):
        text = format_query(QuerySynthesizer().synthesize(figure2_graph))
        assert 'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1' in text
        assert "return distinct p1, f1" in text
        assert "with evt1 before evt2" in text

    def test_path_pattern_rendering(self):
        query = parse_query("proc p ~>(2~4)[read] file f as e return p")
        text = format_query(query)
        assert "~>(2~4)[read]" in text
        assert len(parse_query(text).patterns) == 1

    def test_time_window_rendering(self):
        query = parse_query("proc p read file f as e during (5, 10) return p")
        text = format_query(query)
        assert "during (5, 10)" in text
        assert parse_query(text).patterns[0].window.start == 5

    def test_explicit_attribute_rendering(self):
        query = parse_query('proc p[pid > 10 and exename = "%sh%"] read file f as e return p.pid')
        text = format_query(query)
        reparsed = parse_query(text)
        comparisons = reparsed.patterns[0].subject.filter.comparisons()
        assert {c.attribute for c in comparisons} == {"pid", "exename"}

    def test_count_query_lines(self, figure2_graph):
        text = format_query(QuerySynthesizer().synthesize(figure2_graph))
        assert count_query_lines(text) == 10  # 8 patterns + with + return


_AUDITABLE_REPORTS = [r for r in ALL_REPORTS if r.auditable and r.relation_ground_truth]


class TestSynthesisOverTheBundledReports:
    """EXP-SYNTH: coverage of the reports' behaviour steps, and TBQL's conciseness."""

    @pytest.fixture(scope="class")
    def graphs(self):
        extractor = ThreatBehaviorExtractor()
        return {report.name: extractor.extract(report.text).graph for report in _AUDITABLE_REPORTS}

    @pytest.mark.parametrize("report", _AUDITABLE_REPORTS, ids=lambda r: r.name)
    def test_one_valid_pattern_per_kept_behaviour_edge(self, graphs, report):
        synthesis = QuerySynthesizer().synthesize_with_report(graphs[report.name])
        assert analyze(synthesis.query).query.patterns
        assert synthesis.kept_edges == len(synthesis.query.patterns)
        assert synthesis.kept_edges >= len(report.relation_ground_truth) * 0.6

    @pytest.mark.parametrize("report", _AUDITABLE_REPORTS, ids=lambda r: r.name)
    def test_tbql_is_at_least_three_times_shorter_than_its_sql(self, graphs, report):
        """The paper's conciseness claim, over the data queries the engine runs."""
        query = QuerySynthesizer().synthesize(graphs[report.name])
        sql_lines = sum(
            len(
                render_select_query(
                    compile_select(pattern), parameterized=False, pretty=True
                ).text.splitlines()
            )
            for pattern in query.event_patterns()
        )
        assert sql_lines >= 3 * count_query_lines(format_query(query))

    def test_path_pattern_tbql_is_no_longer_than_its_cypher(self, graphs):
        plan = SynthesisPlan(use_path_patterns=True, path_max_length=3)
        query = QuerySynthesizer(plan).synthesize(graphs[_AUDITABLE_REPORTS[0].name])
        assert query.path_patterns()
        cypher_lines = sum(
            len(render_path_pattern(build_path_pattern(pattern)).splitlines())
            for pattern in query.path_patterns()
        )
        assert cypher_lines >= count_query_lines(format_query(query))
