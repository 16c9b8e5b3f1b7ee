"""Integration tests for the ThreatRaptor facade and configuration."""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.sysdig import write_trace
from repro.auditing.trace import AuditTrace
from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.data import FIGURE2_REPORT
from repro.errors import ConfigurationError, ExecutionError
from repro.evaluation import score_hunting
from repro.storage.loader import AuditStore
from repro.tbql.executor import TBQLExecutionEngine


class TestConfig:
    def test_default_config_valid(self):
        config = ThreatRaptorConfig().validate()
        assert config.execution_backend == "auto"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreatRaptorConfig(execution_backend="oracle").validate()

    def test_invalid_path_length_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreatRaptorConfig(synthesis_path_max_length=0).validate()

    def test_negative_merge_window_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreatRaptorConfig(reduction_merge_window_ns=-5).validate()

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            ThreatRaptor(ThreatRaptorConfig(execution_backend="oracle"))

    @pytest.mark.parametrize(
        "removed", [{"shards": 4}, {"relational_executor": "reference"}, {"graph_matcher": "reference"}]
    )
    def test_removed_selectors_are_not_settings(self, removed):
        with pytest.raises(TypeError):
            ThreatRaptorConfig(**removed)
        assert len(dataclasses.fields(ThreatRaptorConfig)) == 12

    @pytest.mark.parametrize("backend", ["sql", "relational"])
    def test_removed_execution_backends_are_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            ThreatRaptorConfig(execution_backend=backend).validate()
        with pytest.raises(ExecutionError):
            TBQLExecutionEngine(AuditStore(), backend=backend)


class TestCrossHostChain:
    def test_write_on_one_host_read_on_another_is_one_row(self):
        """A chain whose events carry different hosts joins on the shared file."""
        writer = ProcessEntity(entity_id=1, host="alpha", exename="/bin/dropper", pid=7)
        reader = ProcessEntity(entity_id=2, host="bravo", exename="/bin/loader", pid=9)
        shared = FileEntity(entity_id=3, host="alpha", name="/mnt/share/payload")
        events = [
            SystemEvent(10, 1, 3, Operation.WRITE, EntityType.FILE, 100, 200, 64, host="alpha"),
            SystemEvent(11, 2, 3, Operation.READ, EntityType.FILE, 300, 400, 64, host="bravo"),
        ]
        raptor = ThreatRaptor()
        raptor.load_trace(AuditTrace(entities=[writer, reader, shared], events=events))
        result = raptor.execute_query(
            'proc p["%dropper%"] write file f as e1 '
            'proc q["%loader%"] read file f as e2 '
            "with e1 before e2 return p, q, f"
        )
        assert len(result) == 1
        assert result.all_matched_event_ids() == {10, 11}


class TestEndToEndHunt:
    def test_hunt_reproduces_figure2(self, figure2_raptor, figure2_simulation):
        report = figure2_raptor.hunt(FIGURE2_REPORT.text)
        assert len(report.behavior_graph.edges) == 8
        assert len(report.query.patterns) == 8
        assert len(report.result) >= 1
        truth = figure2_simulation.ground_truth("figure2-data-leakage")
        matched = report.result.all_matched_event_ids()
        score = score_hunting(matched, truth.event_ids)
        assert score.precision == 1.0
        assert score.recall == 1.0
        benign_ids = {event.event_id for event in figure2_simulation.trace.benign_events()}
        assert not matched & benign_ids

    def test_query_text_matches_paper_style(self, figure2_raptor):
        report = figure2_raptor.hunt(FIGURE2_REPORT.text)
        assert len(report.query.event_patterns()) == 8
        assert len(report.query.temporal_relations) == 7
        assert 'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1' in report.query_text
        assert "return distinct" in report.query_text

    def test_summary_fields(self, figure2_raptor):
        report = figure2_raptor.hunt(FIGURE2_REPORT.text)
        summary = report.summary()
        assert summary["behavior_edges"] == 8
        assert summary["query_patterns"] == 8
        assert summary["matched_events"] == 8
        assert summary["iocs"] == 9

    def test_stage_apis_compose(self, figure2_raptor):
        extraction = figure2_raptor.extract_behavior_graph(FIGURE2_REPORT.text)
        query = figure2_raptor.synthesize_query(extraction.graph)
        result = figure2_raptor.execute_query(query)
        assert len(result) >= 1

    def test_load_log_stream(self, figure2_simulation):
        buffer = io.StringIO()
        write_trace(figure2_simulation.trace, buffer)
        raptor = ThreatRaptor()
        load_report = raptor.load_log(io.StringIO(buffer.getvalue()), host="victim-host")
        assert load_report.relational_rows["events"] > 0
        report = raptor.hunt(FIGURE2_REPORT.text)
        assert len(report.result) >= 1

    def test_load_log_file(self, tmp_path, figure2_simulation):
        path = tmp_path / "audit.log"
        with open(path, "w", encoding="utf-8") as handle:
            write_trace(figure2_simulation.trace, handle)
        raptor = ThreatRaptor()
        raptor.load_log_file(str(path))
        assert len(raptor.hunt(FIGURE2_REPORT.text).result) >= 1

    def test_relational_and_graph_backends_agree(self, figure2_simulation):
        results = {}
        for backend in ("auto", "graph"):
            raptor = ThreatRaptor(ThreatRaptorConfig(execution_backend=backend))
            raptor.load_trace(figure2_simulation.trace)
            results[backend] = raptor.hunt(FIGURE2_REPORT.text).result
        assert set(results["auto"].rows) == set(results["graph"].rows)

    def test_reduction_disabled_still_hunts(self, figure2_simulation):
        raptor = ThreatRaptor(ThreatRaptorConfig(apply_reduction=False))
        raptor.load_trace(figure2_simulation.trace)
        assert len(raptor.hunt(FIGURE2_REPORT.text).result) >= 1

    def test_path_pattern_synthesis_still_finds_attack(self, figure2_simulation):
        raptor = ThreatRaptor(
            ThreatRaptorConfig(synthesis_use_path_patterns=True, synthesis_path_max_length=2)
        )
        raptor.load_trace(figure2_simulation.trace)
        report = raptor.hunt(FIGURE2_REPORT.text)
        truth = figure2_simulation.ground_truth("figure2-data-leakage")
        matched = report.result.all_matched_event_ids()
        assert truth.event_ids <= matched

    def test_hunt_on_an_empty_store_returns_empty(self):
        raptor = ThreatRaptor()
        report = raptor.hunt(FIGURE2_REPORT.text)
        assert len(report.result) == 0
        assert len(report.behavior_graph.edges) == 8
