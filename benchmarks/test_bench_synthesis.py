"""EXP-SYNTH — query synthesis correctness and TBQL conciseness.

TBQL's motivation is that general-purpose query languages "are low-level and
verbose" while TBQL "treats system entities and events as first-class citizens".
This experiment (a) verifies that synthesis from every auditable corpus report
produces a semantically valid query covering the report's behaviour steps, and
(b) compares the size of the synthesized TBQL text against the SQL and Cypher
data queries the execution engine would have to run.

Expected shape: TBQL is several times more concise than the compiled SQL, and
synthesis is instantaneous (well under a millisecond per behaviour edge).
"""

from __future__ import annotations

import pytest

from repro.data import ALL_REPORTS
from repro.nlp.extractor import ThreatBehaviorExtractor
from repro.storage.sql.render import render_select_query
from repro.tbql.compiler.cypher_compiler import CypherCompiler
from repro.tbql.compiler.sql_compiler import SQLCompiler
from repro.tbql.formatter import count_query_lines as tbql_lines
from repro.tbql.formatter import format_query
from repro.tbql.semantics import analyze
from repro.tbql.synthesis import QuerySynthesizer, SynthesisPlan

_AUDITABLE_REPORTS = [r for r in ALL_REPORTS if r.auditable and r.relation_ground_truth]


@pytest.fixture(scope="module")
def extraction_graphs():
    extractor = ThreatBehaviorExtractor()
    return {report.name: extractor.extract(report.text).graph for report in _AUDITABLE_REPORTS}


@pytest.mark.parametrize("report", _AUDITABLE_REPORTS, ids=lambda r: r.name)
def test_bench_synthesis_latency(benchmark, report, extraction_graphs):
    graph = extraction_graphs[report.name]
    synthesizer = QuerySynthesizer()
    query = benchmark(synthesizer.synthesize, graph)
    analyzed = analyze(query)
    assert analyzed.query.patterns
    benchmark.extra_info["patterns"] = len(query.patterns)


def test_synthesized_queries_cover_behaviour_steps(extraction_graphs):
    """Every auditable behaviour edge yields one event pattern (after screening)."""
    for report in _AUDITABLE_REPORTS:
        graph = extraction_graphs[report.name]
        synthesis = QuerySynthesizer().synthesize_with_report(graph)
        assert synthesis.kept_edges == len(synthesis.query.patterns)
        assert synthesis.kept_edges >= len(report.relation_ground_truth) * 0.6


def test_conciseness_tbql_vs_backend_queries(extraction_graphs):
    """Lines of TBQL vs. lines of compiled SQL for the same hunt."""
    rows = []
    sql_compiler = SQLCompiler()
    for report in _AUDITABLE_REPORTS:
        query = QuerySynthesizer().synthesize(extraction_graphs[report.name])
        tbql_text = format_query(query)
        sql_total = sum(
            len(
                render_select_query(
                    sql_compiler.compile(pattern).query, parameterized=False, pretty=True
                ).text.splitlines()
            )
            for pattern in query.event_patterns()
        )
        rows.append((report.name, tbql_lines(tbql_text), sql_total))
    print("\n[EXP-SYNTH] report | TBQL lines | compiled SQL lines")
    for name, tbql_count, sql_count in rows:
        print(f"  {name:22s} | {tbql_count:10d} | {sql_count:8d}")
    for _, tbql_count, sql_count in rows:
        assert sql_count >= 3 * tbql_count


def test_conciseness_path_patterns_vs_cypher(extraction_graphs):
    """Path-pattern synthesis vs. the Cypher text it compiles to."""
    compiler = CypherCompiler()
    plan = SynthesisPlan(use_path_patterns=True, path_max_length=3)
    graph = extraction_graphs[_AUDITABLE_REPORTS[0].name]
    query = QuerySynthesizer(plan).synthesize(graph)
    tbql_count = tbql_lines(format_query(query))
    cypher_total = sum(
        len(compiler.compile_path(pattern).cypher_text.splitlines())
        for pattern in query.path_patterns()
    )
    print(f"\n[EXP-SYNTH] path-pattern TBQL lines={tbql_count} vs Cypher lines={cypher_total}")
    assert cypher_total >= tbql_count


def test_bench_synthesis_with_path_plan(benchmark, extraction_graphs):
    graph = extraction_graphs[_AUDITABLE_REPORTS[0].name]
    synthesizer = QuerySynthesizer(SynthesisPlan(use_path_patterns=True))
    query = benchmark(synthesizer.synthesize, graph)
    assert query.path_patterns()
