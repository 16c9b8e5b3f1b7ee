"""EXP-LINT — static-analysis gate cost.

The analyzer runs in front of every query execution, hunt registration and
corpus pass, so its cost must be negligible next to what it guards.  Three
measurements, recorded to ``BENCH_results.json`` via the shared recorder:

* **per-query analysis latency** — microseconds per ``StaticAnalyzer.analyze``
  over the bundled campaign hunt queries, cold (fresh analyzer) and cached
  (the memoized report the admission gate serves on re-analysis);
* **corpus-scale lint throughput** — queries/second linting every distinct
  query synthesized from a variant corpus, including store statistics;
* **end-to-end gate overhead** — ``hunt_corpus`` wall time over a loaded
  audit trace with ``analysis_mode="enforce"`` vs ``"off"``, best-of-N per
  mode so scheduler noise cancels; the ratio is recorded, not asserted
  (``bench/`` is where time is judged), and both modes must register the
  same distinct hunts with none rejected.

Size via ``ANALYSIS_BENCH_REPORTS`` (default 48) and
``ANALYSIS_BENCH_REPEATS`` (default 5).  The gate analyzes once per
*distinct* canonical hunt (overlapping reports dedup before the gate), so
its absolute cost is flat in corpus size while extraction scales linearly —
both counts are recorded so the ratio can be read in context.
"""

from __future__ import annotations

import os
import time

from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.intel.corpus import ReportCorpus
from repro.scenarios import generate_campaigns
from repro.tbql.analysis import StaticAnalyzer
from repro.tbql.parser import parse_query

REPORT_COUNT = int(os.environ.get("ANALYSIS_BENCH_REPORTS", "48"))
REPEATS = int(os.environ.get("ANALYSIS_BENCH_REPEATS", "5"))


def test_bench_analyzer_latency_per_query(bench_results):
    """Cold and cached microseconds per analyze() over campaign hunt queries."""
    queries = [
        parse_query(hunt.query_text)
        for campaign in generate_campaigns(3, base_seed=900)
        for hunt in campaign.hunts
    ]
    assert queries

    cold_seconds = []
    for _ in range(REPEATS):
        analyzer = StaticAnalyzer()
        started = time.perf_counter()
        for query in queries:
            assert not analyzer.analyze(query).has_errors()
        cold_seconds.append(time.perf_counter() - started)
    cold_us = min(cold_seconds) / len(queries) * 1e6

    warm = StaticAnalyzer()
    for query in queries:
        warm.analyze(query)
    started = time.perf_counter()
    hits = 0
    for _ in range(REPEATS * 20):
        for query in queries:
            warm.analyze(query)
            hits += 1
    cached_us = (time.perf_counter() - started) / hits * 1e6

    entry = bench_results.record(
        "analysis-latency",
        queries=len(queries),
        repeats=REPEATS,
        microseconds_per_query_cold=round(cold_us, 2),
        microseconds_per_query_cached=round(cached_us, 2),
    )
    print(f"\nanalysis-latency: {entry}")


def test_bench_corpus_lint_throughput(bench_results):
    """Queries/second linting every distinct synthesized corpus query."""
    corpus = ReportCorpus.variants(REPORT_COUNT, seed=41)
    raptor = ThreatRaptor()
    queries = []
    seen = set()
    for corpus_report in corpus:
        extraction = raptor.extract_behavior_graph(corpus_report.text)
        query = raptor.synthesize_query(extraction.graph)
        text = str(query)
        if text not in seen:
            seen.add(text)
            queries.append(query)
    assert queries

    analyzer = StaticAnalyzer(store=raptor.store)
    started = time.perf_counter()
    reports = [analyzer.analyze(query) for query in queries for _ in range(REPEATS)]
    seconds = time.perf_counter() - started
    assert not any(report.has_errors() for report in reports)

    linted = len(reports)
    entry = bench_results.record(
        "analysis-corpus-throughput",
        corpus_reports=REPORT_COUNT,
        distinct_queries=len(queries),
        lints=linted,
        seconds=round(seconds, 6),
        queries_per_second=round(linted / seconds, 2),
    )
    print(f"\nanalysis-corpus-throughput: {entry}")


def test_bench_hunt_corpus_gate_overhead(bench_results):
    """hunt_corpus wall time, enforce vs off, recorded (``bench/`` judges time).

    Each run hunts the corpus against a store pre-loaded with a generated
    campaign trace — the deployment the paper describes, where registration
    work (and thus the gate) competes with extraction and evaluation over
    real audit data.  Best-of-N per mode cancels scheduler noise; a single
    pair of runs on a busy box swings more than the gate itself costs.
    """
    corpus = ReportCorpus.variants(REPORT_COUNT, seed=51)
    campaign = generate_campaigns(1, base_seed=900, noise_scale=3.0)[0]

    hunt_counts = set()

    def run(mode: str) -> float:
        raptor = ThreatRaptor(ThreatRaptorConfig(analysis_mode=mode))
        raptor.store.load_trace(campaign.trace)
        started = time.perf_counter()
        result = raptor.hunt_corpus(corpus)
        seconds = time.perf_counter() - started
        assert result.hunts
        assert not result.rejected
        hunt_counts.add(len(result.hunts))
        return seconds

    run("off")  # warm shared caches (extraction pipeline) outside the comparison
    # Interleave the modes: load drifts over seconds on a busy box, and
    # back-to-back batches would attribute that drift to the gate.
    off_runs, enforce_runs = [], []
    for _ in range(REPEATS):
        off_runs.append(run("off"))
        enforce_runs.append(run("enforce"))
    off_seconds = min(off_runs)
    enforce_seconds = min(enforce_runs)
    assert len(hunt_counts) == 1  # both modes register the same distinct hunts

    overhead = enforce_seconds / off_seconds - 1.0
    entry = bench_results.record(
        "analysis-gate-overhead",
        corpus_reports=REPORT_COUNT,
        distinct_hunts=hunt_counts.pop(),
        trace_events=len(campaign.trace.events),
        repeats=REPEATS,
        seconds_off=round(off_seconds, 6),
        seconds_enforce=round(enforce_seconds, 6),
        overhead_pct=round(overhead * 100, 2),
    )
    print(f"\nanalysis-gate-overhead: {entry}")
