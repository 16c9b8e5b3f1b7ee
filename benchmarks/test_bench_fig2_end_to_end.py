"""FIG2-E2E — reproduce the paper's Figure 2 end-to-end case.

Figure 2 shows the whole pipeline on the data-leakage attack: OSCTI text →
threat behavior graph (8 edges) → synthesized TBQL query (8 event patterns,
temporal chain, distinct return) → matched system auditing records.  The
benchmark measures the wall-clock cost of each stage and asserts that the
artefact *shapes* match the figure exactly.
"""

from __future__ import annotations

from repro.core.pipeline import ThreatRaptor
from repro.data import FIGURE2_REPORT
from repro.evaluation import score_hunting
from repro.nlp.extractor import ThreatBehaviorExtractor
from repro.tbql.formatter import format_query
from repro.tbql.synthesis import QuerySynthesizer

EXPECTED_EDGES = [
    ("/bin/tar", "read", "/etc/passwd"),
    ("/bin/tar", "write", "/tmp/upload.tar"),
    ("/bin/bzip2", "read", "/tmp/upload.tar"),
    ("/bin/bzip2", "write", "/tmp/upload.tar.bz2"),
    ("/usr/bin/gpg", "read", "/tmp/upload.tar.bz2"),
    ("/usr/bin/gpg", "write", "/tmp/upload"),
    ("/usr/bin/curl", "read", "/tmp/upload"),
    ("/usr/bin/curl", "connect", "192.168.29.128"),
]


def test_bench_extraction_stage(benchmark):
    """Stage 1: OSCTI text → threat behavior graph."""
    extractor = ThreatBehaviorExtractor()
    result = benchmark(extractor.extract, FIGURE2_REPORT.text)
    ordered = [(e.subject.text, e.verb, e.obj.text) for e in result.graph.edges_in_order()]
    assert ordered == EXPECTED_EDGES
    benchmark.extra_info["behavior_edges"] = len(result.graph.edges)
    benchmark.extra_info["iocs"] = len(result.merge_result.canonical_iocs())


def test_bench_synthesis_stage(benchmark):
    """Stage 2: threat behavior graph → TBQL query."""
    graph = ThreatBehaviorExtractor().extract(FIGURE2_REPORT.text).graph
    synthesizer = QuerySynthesizer()
    query = benchmark(synthesizer.synthesize, graph)
    text = format_query(query)
    assert len(query.event_patterns()) == 8
    assert len(query.temporal_relations) == 7
    assert 'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1' in text
    benchmark.extra_info["tbql_lines"] = len(text.splitlines())


def test_bench_execution_stage(benchmark, small_simulation, small_store):
    """Stage 3: TBQL query → matched audit records."""
    from repro.tbql.executor import TBQLExecutionEngine

    graph = ThreatBehaviorExtractor().extract(FIGURE2_REPORT.text).graph
    query = QuerySynthesizer().synthesize(graph)
    engine = TBQLExecutionEngine(small_store)

    result = benchmark(engine.execute, query)
    truth = small_simulation.ground_truth("figure2-data-leakage")
    matched = result.all_matched_event_ids()
    score = score_hunting(matched, truth.event_ids)
    assert score.recall == 1.0
    # The simulation also injects the Section III data-leakage attack, whose
    # exfiltration chain legitimately matches the same query; what matters is
    # that no *benign* activity is flagged.
    benign_ids = {event.event_id for event in small_simulation.trace.benign_events()}
    assert not (matched & benign_ids)
    benchmark.extra_info["events_searched"] = small_store.graph.edge_count()
    benchmark.extra_info["hunting"] = score.as_dict()


def test_bench_full_pipeline(benchmark, small_simulation):
    """The whole hunt() call: extraction + synthesis + execution."""
    raptor = ThreatRaptor()
    raptor.load_trace(small_simulation.trace)

    report = benchmark(raptor.hunt, FIGURE2_REPORT.text)
    assert len(report.result) >= 1
    assert len(report.behavior_graph.edges) == 8
    truth = small_simulation.ground_truth("figure2-data-leakage")
    matched = report.result.all_matched_event_ids()
    assert truth.event_ids <= matched
    benchmark.extra_info["summary"] = report.summary()
