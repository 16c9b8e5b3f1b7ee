"""The span table: which public method is which layer, and what it counts.

Span names are the repository's module names.  ``facade`` and
``storage.segment.reopen`` have no target: the workloads time those calls
themselves (an operation through ``ThreatRaptor``/``HuntingService``; the
constructor of a pipeline over an existing ``data_dir``).

Hooks read return values and public attributes only.
"""

from __future__ import annotations

from typing import Any

from bench.trace import SpanSpec, Tracer


def _extract(tracer: Tracer, _self: Any, result: Any) -> None:
    tracer.count("nlp.extract.iocs", len(result.iocs))
    tracer.count("nlp.extract.edges", len(result.graph.edges))


def _register(tracer: Tracer, _self: Any, result: Any) -> None:
    summary = result.summary()
    tracer.count("intel.register.reports", summary["reports"])
    tracer.count("intel.register.hunts", summary["hunts"])
    tracer.count("intel.register.text_cache_hits", summary["extraction_cache_hits"])


def _tbql_execute(tracer: Tracer, _self: Any, result: Any) -> None:
    tracer.count("tbql.execute.rows_out", len(result))


def _parse(tracer: Tracer, _self: Any, result: Any) -> None:
    _trace, stats = result
    tracer.count("auditing.parse.records", stats.records_parsed)
    tracer.count("auditing.parse.skipped", stats.records_skipped)


def _cpr(tracer: Tracer, _self: Any, result: Any) -> None:
    _trace, stats = result
    tracer.count("auditing.cpr.events_in", stats.events_before)
    tracer.count("auditing.cpr.events_out", stats.events_after)


def _relational_execute(tracer: Tracer, _self: Any, result: Any) -> None:
    tracer.count("storage.relational.execute.rows_out", len(result.rows))


def _graph_match(tracer: Tracer, _self: Any, result: Any) -> None:
    tracer.count("storage.graph.match.paths_out", len(result))


def _ingest(tracer: Tracer, _self: Any, result: Any) -> None:
    tracer.count("streaming.ingest.events_in", result.report.events_ingested)
    tracer.count("streaming.ingest.events_sealed", len(result.report.stored_events))


def _evaluate(tracer: Tracer, _self: Any, result: Any) -> None:
    tracer.count("streaming.alerts.emitted", len(result))


_ENGINE = "repro.tbql.executor:TBQLExecutionEngine"
_STORE = "repro.storage.loader:AuditStore"
_RELATIONAL = "repro.storage.relational.database:RelationalDatabase"
_GRAPH = "repro.storage.graph.graphdb:GraphDatabase"
_SEGMENT = "repro.storage.segment.database:SegmentedRelationalDatabase"

SPANS: tuple[SpanSpec, ...] = (
    SpanSpec("facade"),
    SpanSpec("nlp.extract", ("repro.nlp.extractor:ThreatBehaviorExtractor.extract",), _extract),
    SpanSpec("intel.register", ("repro.intel.hunt:CorpusHuntPlanner.register",), _register),
    SpanSpec("tbql.synthesize", ("repro.tbql.synthesis:QuerySynthesizer.synthesize",)),
    # ``execute``/``prepare`` reach static analysis through ``admission_check``;
    # ``analyze`` is the ungated entry the corpus planner and the monitor use.
    SpanSpec("tbql.analyze", (f"{_ENGINE}.analyze", f"{_ENGINE}.admission_check")),
    SpanSpec("tbql.prepare", (f"{_ENGINE}.prepare",)),
    SpanSpec("tbql.execute", (f"{_ENGINE}.execute", f"{_ENGINE}.execute_prepared"), _tbql_execute),
    SpanSpec("auditing.parse", ("repro.auditing.parser:AuditLogParser.parse",), _parse),
    SpanSpec("auditing.cpr", ("repro.auditing.reduction:CausalityPreservedReducer.reduce",), _cpr),
    SpanSpec("auditing.cpr_incremental", ("repro.auditing.reduction:IncrementalReducer.ingest",)),
    SpanSpec("storage.load", (f"{_STORE}.load_trace",)),
    SpanSpec("storage.append", (f"{_STORE}.append_batch", f"{_STORE}.flush")),
    SpanSpec("storage.relational.load", (f"{_RELATIONAL}.load_trace",)),
    SpanSpec("storage.relational.append", (f"{_RELATIONAL}.append_batch",)),
    SpanSpec("storage.relational.execute", (f"{_RELATIONAL}.execute",), _relational_execute),
    SpanSpec("storage.graph.load", (f"{_GRAPH}.load_trace",)),
    SpanSpec("storage.graph.append", (f"{_GRAPH}.append_batch",)),
    SpanSpec(
        "storage.graph.match",
        ("repro.storage.graph.planner:CostGuidedPathMatcher.match",),
        _graph_match,
        exhaust=True,
    ),
    SpanSpec("storage.segment.load", (f"{_SEGMENT}.load_trace",)),
    SpanSpec("storage.segment.seal", (f"{_SEGMENT}.seal",)),
    SpanSpec("storage.segment.execute", (f"{_SEGMENT}.execute",)),
    SpanSpec("storage.segment.reopen"),
    SpanSpec("streaming.ingest", ("repro.streaming.ingest:StreamIngestor.ingest",), _ingest),
    SpanSpec("streaming.evaluate", ("repro.streaming.monitor:QueryMonitor.evaluate",), _evaluate),
)

#: Counters the hooks above and the workloads add beside the span triples.
COUNTERS: tuple[str, ...] = (
    "nlp.extract.iocs",
    "nlp.extract.edges",
    "intel.register.reports",
    "intel.register.hunts",
    "intel.register.text_cache_hits",
    "tbql.prepared.plan_hits",
    "tbql.prepared.plan_misses",
    "tbql.execute.rows_out",
    "auditing.parse.records",
    "auditing.parse.skipped",
    "auditing.cpr.events_in",
    "auditing.cpr.events_out",
    "storage.relational.execute.rows_out",
    "storage.graph.match.paths_out",
    "storage.segment.seal.bytes_written",
    "storage.segment.execute.segments_scanned",
    "storage.segment.execute.segments_pruned",
    "storage.segment.first_hunt_ms",
    "storage.segment.disk_bytes_per_event",
    "streaming.ingest.events_in",
    "streaming.ingest.events_sealed",
    "streaming.evaluate.early_p50_ms",
    "streaming.evaluate.late_p50_ms",
    "streaming.evaluate.growth_ratio",
    "streaming.alerts.emitted",
)

#: The seven ad-hoc query types, in cycle order (``query.<name>.p50_ms``).
QUERY_TYPES: tuple[str, ...] = (
    "staging",
    "exfiltration",
    "wide",
    "selective",
    "path",
    "staging_windowed",
    "wide_windowed",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in catalogue order."""
    names = [f"{spec.name}.{part}" for spec in SPANS for part in ("calls", "busy_s", "self_s")]
    names.extend(COUNTERS)
    names.extend(f"query.{query}.p50_ms" for query in QUERY_TYPES)
    names.extend(("op.count", "op.p95_ms", "bench.trace.overhead_pct", "bench.trace.spans_missing"))
    return names
