"""The ThreatRaptor facade: OSCTI report text → matched audit records.

:class:`ThreatRaptor` wires the subsystems together exactly as Figure 1 of the
paper describes: system audit logging data is parsed and stored in the
relational and graph backends; an OSCTI report goes through the threat
behavior extraction pipeline to produce a threat behavior graph; the graph is
synthesized into a TBQL query; and the query execution engine searches the
stored audit data, returning the matched system auditing records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, TextIO

from repro.auditing.parser import AuditLogParser
from repro.auditing.trace import AuditTrace
from repro.core.config import ThreatRaptorConfig
from repro.nlp.behavior_graph import ThreatBehaviorGraph
from repro.nlp.extractor import ExtractionResult, ThreatBehaviorExtractor
from repro.storage.loader import AuditStore, LoadReport
from repro.tbql.ast import Query
from repro.tbql.executor import TBQLExecutionEngine
from repro.tbql.formatter import format_query
from repro.tbql.prepared import PreparedQuery
from repro.tbql.result import TBQLResult
from repro.tbql.synthesis import QuerySynthesizer, SynthesisPlan

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.intel.corpus import CorpusReport, ReportCorpus
    from repro.intel.hunt import CorpusHuntResult
    from repro.tbql.analysis.diagnostics import AnalysisReport
    from repro.streaming.alerts import AlertSink
    from repro.streaming.service import HuntingService


@dataclass
class HuntReport:
    """Everything produced by one end-to-end hunt."""

    extraction: ExtractionResult
    behavior_graph: ThreatBehaviorGraph
    query: Query
    query_text: str
    result: TBQLResult
    load_report: LoadReport | None = None

    def summary(self) -> dict[str, object]:
        """Compact summary used by the CLI and the examples.

        The IOC count is taken from :meth:`ExtractionResult.canonical_iocs` —
        the same canonical form query synthesis consumes — so the reported
        number matches the entities that can appear in synthesized filters.
        """
        return {
            "iocs": len(self.extraction.canonical_iocs()),
            "behavior_edges": len(self.behavior_graph.edges),
            "query_patterns": len(self.query.patterns),
            "result_rows": len(self.result),
            "matched_events": len(self.result.all_matched_event_ids()),
        }


class ThreatRaptor:
    """The end-to-end threat hunting system.

    Typical usage::

        raptor = ThreatRaptor()
        raptor.load_trace(trace)               # from the simulator or a log file
        report = raptor.hunt(osint_report_text)
        print(report.query_text)
        print(report.result.to_table())
    """

    def __init__(self, config: ThreatRaptorConfig | None = None) -> None:
        self.config = (config or ThreatRaptorConfig()).validate()
        self.store = AuditStore(
            apply_reduction=self.config.apply_reduction,
            merge_window_ns=self.config.reduction_merge_window_ns,
            storage=self.config.storage,
            data_dir=self.config.data_dir,
            segment_rows=self.config.segment_rows,
        )
        self._extractor = ThreatBehaviorExtractor(
            resolve_nominal_coreference=self.config.resolve_nominal_coreference
        )
        self._synthesizer = QuerySynthesizer(
            SynthesisPlan(
                use_path_patterns=self.config.synthesis_use_path_patterns,
                path_max_length=self.config.synthesis_path_max_length,
                wildcard_filters=self.config.synthesis_wildcard_filters,
            )
        )
        self._engine = TBQLExecutionEngine(
            self.store,
            backend=self.config.execution_backend,
            analysis_mode=self.config.analysis_mode,
        )
        self._load_report: LoadReport | None = None

    # -- data collection / storage --------------------------------------------------

    def load_trace(self, trace: AuditTrace) -> LoadReport:
        """Load an in-memory audit trace into the storage backends."""
        self._load_report = self.store.load_trace(trace)
        return self._load_report

    def load_log(self, stream: TextIO, host: str = "localhost") -> LoadReport:
        """Parse a Sysdig-style audit log stream and load it."""
        trace, _ = AuditLogParser(host=host).parse(stream)
        return self.load_trace(trace)

    def load_log_file(self, path: str, host: str = "localhost") -> LoadReport:
        """Parse and load an audit log file from disk."""
        trace, _ = AuditLogParser(host=host).parse_file(path)
        return self.load_trace(trace)

    # -- pipeline stages --------------------------------------------------------------

    def extract_behavior_graph(self, report_text: str) -> ExtractionResult:
        """Run threat behavior extraction on an OSCTI report."""
        return self._extractor.extract(report_text)

    def synthesize_query(self, graph: ThreatBehaviorGraph) -> Query:
        """Synthesize a TBQL query from a threat behavior graph."""
        return self._synthesizer.synthesize(graph)

    def execute_query(self, query: Query | str) -> TBQLResult:
        """Execute a TBQL query (AST or source text) over the stored audit data."""
        return self._engine.execute(query, optimize=self.config.optimize_execution)

    def analyze_query(self, query: Query | str) -> "AnalysisReport":
        """Statically analyze a TBQL query against this pipeline's store.

        Runs the full lint-rule catalog (satisfiability, dead predicates,
        cost against the store's index statistics, backend portability) and
        returns the :class:`~repro.tbql.analysis.AnalysisReport` without
        gating anything — callers decide what to do with the findings.
        """
        return self._engine.analyze(query)

    def prepare_query(
        self, query: Query | str, window_hints: tuple[str, ...] = ()
    ) -> PreparedQuery:
        """Prepare a TBQL query for repeated execution (standing hunts).

        Parsing, semantic analysis, scheduling and per-pattern data-query
        compilation happen once; each ``execute`` call pays only for
        execution.  The streaming monitor prepares every registered hunt this
        way, passing the temporal sink as a window hint.
        """
        return self._engine.prepare(
            query, optimize=self.config.optimize_execution, window_hints=window_hints
        )

    # -- continuous hunting ------------------------------------------------------------

    def watch(
        self,
        report_text: str | None = None,
        query: Query | str | None = None,
        name: str = "hunt",
        batch_size: int = 256,
        sinks: "tuple[AlertSink, ...]" = (),
        checkpoint_dir: str | None = None,
    ) -> "HuntingService":
        """Create a continuous hunting service bound to this pipeline.

        The returned :class:`~repro.streaming.service.HuntingService` shares
        this instance's audit store and execution engine, so data already
        loaded stays huntable and streamed batches land in the same backends.
        When ``report_text`` (an OSCTI report, synthesized on registration) or
        ``query`` (TBQL) is given, a standing hunt called ``name`` is
        registered immediately; either way more hunts can be registered on the
        service afterwards.

        With ``checkpoint_dir`` the hunt is crash-safe: standing state is
        checkpointed there (``checkpoint.json``) after every micro-batch,
        alerts are journaled durably (``alerts.jsonl``), and when the
        directory already holds a checkpoint the service *resumes* from it —
        previously delivered alerts are never re-emitted.
        """
        from repro.streaming.service import HuntingService

        if checkpoint_dir is None:
            service = HuntingService(raptor=self, batch_size=batch_size, sinks=sinks)
        else:
            from pathlib import Path

            from repro.streaming.checkpoint import CheckpointStore
            from repro.streaming.journal import JournalSink

            store = CheckpointStore(checkpoint_dir)
            journal = JournalSink(Path(checkpoint_dir) / "alerts.jsonl")
            service = HuntingService.resume(
                store,
                raptor=self,
                batch_size=batch_size,
                sinks=sinks,
                journal=journal,
            )
        if report_text is not None or query is not None:
            if service.hunt(name) is None:
                service.register_hunt(name, report=report_text, query=query)
        return service

    def hunt_corpus(
        self,
        reports: "ReportCorpus | object",
        service: "HuntingService | None" = None,
        batch_size: int = 256,
        sinks: "tuple[AlertSink, ...]" = (),
        name_prefix: str = "corpus",
    ) -> "CorpusHuntResult":
        """Register the deduped standing hunts for a whole OSCTI report corpus.

        Every report is extracted, its behavior graph synthesized into a TBQL
        query, and semantically equivalent queries from overlapping reports
        are canonicalized into **one** standing hunt each on the returned
        result's
        :class:`~repro.streaming.service.HuntingService`.  Alerts raised by
        those hunts carry the ids of every originating report.

        Args:
            reports: A :class:`~repro.intel.corpus.ReportCorpus` or any
                iterable of :class:`~repro.intel.corpus.CorpusReport` /
                :class:`~repro.data.osctireports.AnnotatedReport` /
                ``(id, text)`` items.
            service: Register onto an existing hunting service (repeated
                corpus passes dedup against its hunts); a fresh one bound to
                this pipeline is built when omitted.
            batch_size: Micro-batch size for a newly built service.
            sinks: Initial alert sinks for a newly built service.
            name_prefix: Prefix for generated hunt names.
        """
        from repro.intel.corpus import ReportCorpus
        from repro.intel.hunt import CorpusHuntPlanner
        from repro.streaming.service import HuntingService

        if service is None:
            service = HuntingService(raptor=self, batch_size=batch_size, sinks=sinks)
        planner = CorpusHuntPlanner(self, name_prefix=name_prefix)
        return planner.register(ReportCorpus.coerce(reports), service)

    # -- end to end ----------------------------------------------------------------------

    def hunt(self, report_text: str) -> HuntReport:
        """Run the full pipeline: extract → synthesize → execute."""
        extraction = self.extract_behavior_graph(report_text)
        query = self.synthesize_query(extraction.graph)
        result = self.execute_query(query)
        return HuntReport(
            extraction=extraction,
            behavior_graph=extraction.graph,
            query=query,
            query_text=format_query(query),
            result=result,
            load_report=self._load_report,
        )
