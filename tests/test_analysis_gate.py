"""The static-analysis admission gate, end to end.

Covers the engine's ``analysis_mode``, the prepared-query gate, pipeline
configuration, the monitor's quarantine-at-registration path, corpus
reject-with-provenance, and the acceptance property that every bundled
campaign hunt and corpus-synthesized query lints clean of errors.
"""

from __future__ import annotations

import pytest

from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.data.osctireports import corpus_variants
from repro.errors import ConfigurationError, ExecutionError, TBQLAnalysisError
from repro.intel.corpus import ReportCorpus
from repro.scenarios import generate_campaigns
from repro.storage.loader import AuditStore
from repro.tbql.analysis import analyze_query
from repro.tbql.executor import TBQLExecutionEngine

CONTRADICTORY = 'proc p["x"] read file f[id > 100 and id < 10] as e1 return p, f'
CLEAN = 'proc p["%sh%"] read file f["/etc/%"] as e1 return p, f'


class TestEngineGate:
    def test_enforce_rejects_execution(self):
        engine = TBQLExecutionEngine(AuditStore())
        with pytest.raises(TBQLAnalysisError, match="TR101"):
            engine.execute(CONTRADICTORY)

    def test_enforce_rejects_preparation(self):
        engine = TBQLExecutionEngine(AuditStore())
        with pytest.raises(TBQLAnalysisError):
            engine.prepare(CONTRADICTORY)

    def test_enforce_passes_clean_queries(self):
        engine = TBQLExecutionEngine(AuditStore())
        result = engine.execute(CLEAN)
        assert len(result) == 0
        prepared = engine.prepare(CLEAN)
        assert prepared.analysis is not None
        assert not prepared.analysis.has_errors()

    def test_warn_mode_reports_without_gating(self):
        engine = TBQLExecutionEngine(AuditStore(), analysis_mode="warn")
        assert len(engine.execute(CONTRADICTORY)) == 0
        prepared = engine.prepare(CONTRADICTORY)
        assert prepared.analysis is not None
        assert "TR101" in prepared.analysis.rules()

    def test_off_mode_skips_analysis(self):
        engine = TBQLExecutionEngine(AuditStore(), analysis_mode="off")
        assert len(engine.execute(CONTRADICTORY)) == 0
        assert engine.prepare(CONTRADICTORY).analysis is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError, match="analysis mode"):
            TBQLExecutionEngine(AuditStore(), analysis_mode="strict")

    def test_engine_analyze_never_gates(self):
        engine = TBQLExecutionEngine(AuditStore())
        report = engine.analyze(CONTRADICTORY)
        assert report.has_errors()

    def test_diagnostics_travel_on_the_exception(self):
        engine = TBQLExecutionEngine(AuditStore())
        with pytest.raises(TBQLAnalysisError) as excinfo:
            engine.execute(CONTRADICTORY)
        rules = [diagnostic.rule for diagnostic in excinfo.value.diagnostics]
        assert rules == ["TR101"]


class TestPipelineConfig:
    def test_config_validates_analysis_mode(self):
        with pytest.raises(ConfigurationError, match="analysis_mode"):
            ThreatRaptorConfig(analysis_mode="never").validate()
        ThreatRaptorConfig(analysis_mode="warn").validate()

    def test_pipeline_gate_follows_config(self):
        enforcing = ThreatRaptor()
        with pytest.raises(TBQLAnalysisError):
            enforcing.execute_query(CONTRADICTORY)
        permissive = ThreatRaptor(ThreatRaptorConfig(analysis_mode="off"))
        assert len(permissive.execute_query(CONTRADICTORY)) == 0

    def test_pipeline_analyze_query(self):
        raptor = ThreatRaptor()
        report = raptor.analyze_query(CONTRADICTORY)
        assert "TR101" in report.rules()
        assert len(raptor.analyze_query(CLEAN)) == 0


class TestMonitorQuarantine:
    def test_lint_rejected_hunt_is_quarantined_with_provenance(self):
        raptor = ThreatRaptor()
        service = raptor.watch(query=CLEAN, name="good")
        standing = service._monitor.register(
            "bad", CONTRADICTORY, provenance=("report-7",), canonical_key="k-bad"
        )
        assert standing.quarantined
        assert standing.status == "quarantined"
        assert standing.prepared is None
        assert standing.sink_event_id is None
        assert standing.provenance == ("report-7",)
        assert standing.analysis is not None and standing.analysis.has_errors()
        assert [diagnostic.rule for diagnostic in standing.analysis.errors] == ["TR101"]
        assert standing.last_error.startswith("static analysis: [TR101] ")
        assert (standing.evaluations, standing.errors) == (0, 1)
        # Evaluation skips it without raising, and the canonical key still
        # routes (a later equivalent report extends provenance, it does not
        # crash into a duplicate registration).
        assert service._monitor.evaluate(0, None) == []
        assert service._monitor.by_canonical_key("k-bad") is standing

    def test_clean_hunt_registers_with_analysis_attached(self):
        raptor = ThreatRaptor()
        service = raptor.watch(query=CLEAN, name="good")
        standing = service.hunt("good")
        assert standing.status == "ok"
        assert standing.prepared is not None
        assert standing.analysis is not None
        assert not standing.analysis.has_errors()

    def test_reinstated_rejected_hunt_fails_its_evaluations_and_requarantines(self):
        service = ThreatRaptor().watch(query=CLEAN, name="good")
        standing = service._monitor.register("bad", CONTRADICTORY)
        service.reinstate_hunt("bad")
        for batch in range(3):
            assert service._monitor.evaluate(batch, None) == []
        assert standing.quarantined
        assert standing.evaluations == 3
        assert "TR101" in standing.last_error

    def test_warn_mode_hunt_carries_its_analysis_and_still_evaluates(self):
        raptor = ThreatRaptor(ThreatRaptorConfig(analysis_mode="warn"))
        service = raptor.watch(query=CLEAN, name="good")
        standing = service._monitor.register("bad", CONTRADICTORY)
        assert not standing.quarantined
        assert standing.prepared is not None
        assert standing.analysis is standing.prepared.analysis
        assert "TR101" in standing.analysis.rules()
        assert service._monitor.evaluate(0, None) == []
        assert (standing.evaluations, standing.status) == (1, "ok")

    def test_off_mode_hunt_has_no_analysis(self):
        raptor = ThreatRaptor(ThreatRaptorConfig(analysis_mode="off"))
        standing = raptor.watch(query=CONTRADICTORY, name="bad").hunt("bad")
        assert standing.analysis is None and standing.prepared is not None

    def test_registration_runs_static_analysis_once(self, monkeypatch):
        raptor = ThreatRaptor()
        calls = []
        analyze = raptor._engine._static.analyze
        monkeypatch.setattr(
            raptor._engine._static,
            "analyze",
            lambda *args: calls.append(args) or analyze(*args),
        )
        raptor.watch(query=CLEAN, name="good")
        assert len(calls) == 1


class TestCorpusRejection:
    @pytest.fixture()
    def small_corpus(self):
        return ReportCorpus(corpus_variants(4, seed=13))

    def test_contradictory_synthesized_hunts_rejected_with_provenance(
        self, small_corpus
    ):
        raptor = ThreatRaptor()
        # A degenerate synthesis window (end < start) flows unvalidated into
        # every synthesized pattern; the analyzer must prove the queries
        # unsatisfiable (TR105) and the corpus pass must reject them while
        # keeping the report provenance.
        raptor._synthesizer._plan.time_window = (100, 50)
        result = raptor.hunt_corpus(small_corpus)
        assert result.hunts == []
        assert result.service.hunts == []
        assert result.rejected
        rejected_ids = [
            report_id
            for rejection in result.rejected
            for report_id in rejection.report_ids
        ]
        assert sorted(rejected_ids) == sorted(
            report.report_id for report in small_corpus
        )
        for rejection in result.rejected:
            assert rejection.canonical_key
            assert rejection.query_text
            rules = {diagnostic.rule for diagnostic in rejection.diagnostics}
            assert "TR105" in rules
        summary = result.summary()
        assert summary["hunts_rejected"] == len(result.rejected)
        assert summary["rejected_reports"] == len(rejected_ids)
        assert summary["hunts_registered"] == 0

    def test_off_mode_skips_corpus_gate(self, small_corpus):
        raptor = ThreatRaptor(ThreatRaptorConfig(analysis_mode="off"))
        raptor._synthesizer._plan.time_window = (100, 50)
        result = raptor.hunt_corpus(small_corpus)
        assert result.rejected == []
        assert result.hunts

    def test_healthy_corpus_has_no_rejections(self, small_corpus):
        raptor = ThreatRaptor()
        result = raptor.hunt_corpus(small_corpus)
        assert result.rejected == []
        assert result.summary()["hunts_rejected"] == 0
        for standing in result.service.hunts:
            assert standing.status == "ok"
            assert standing.analysis is not None
            assert not standing.analysis.has_errors()


class TestBundledHuntsLintClean:
    def test_campaign_hunts_have_no_error_diagnostics(self):
        for campaign in generate_campaigns(3, base_seed=700):
            for hunt in campaign.hunts:
                report = analyze_query(hunt.query_text)
                assert not report.has_errors(), (
                    f"{campaign.name}/{hunt.name}: {report.render()}"
                )

    def test_corpus_synthesized_queries_have_no_error_diagnostics(self):
        raptor = ThreatRaptor()
        for corpus_report in ReportCorpus.bundled(auditable_only=True):
            extraction = raptor.extract_behavior_graph(corpus_report.text)
            query = raptor.synthesize_query(extraction.graph)
            report = analyze_query(query)
            assert not report.has_errors(), (
                f"{corpus_report.report_id}: {report.render()}"
            )
