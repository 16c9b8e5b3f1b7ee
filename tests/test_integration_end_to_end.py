"""End-to-end integration tests: the paper's demo scenario (Section III).

Two multi-step attacks are injected into a simulated host that keeps running
its benign workloads; ThreatRaptor hunts each attack from its OSCTI-style
description, and the matched audit records are scored against the injected
ground truth.
"""

from __future__ import annotations

import pytest

from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.data import report_by_name
from repro.evaluation import score_hunting


@pytest.fixture(scope="module")
def demo_raptor(demo_simulation):
    raptor = ThreatRaptor()
    raptor.load_trace(demo_simulation.trace)
    return raptor


class TestDemoAttackHunting:
    def test_password_cracking_hunt_recovers_key_steps(self, demo_raptor, demo_simulation):
        report = demo_raptor.hunt(report_by_name("password-cracking").text)
        truth = demo_simulation.ground_truth("password-cracking")
        matched = report.result.all_matched_event_ids()
        assert matched, "the hunt returned no audit records"
        score = score_hunting(matched, truth.event_ids)
        # Every matched record must be part of the injected attack (no benign
        # false positives), and the description-covered steps must be found.
        assert score.precision == 1.0
        assert score.recall >= 0.3

    def test_data_leakage_hunt_recovers_exfil_chain(self, demo_raptor, demo_simulation):
        report = demo_raptor.hunt(report_by_name("data-leakage").text)
        truth = demo_simulation.ground_truth("data-leakage")
        matched = report.result.all_matched_event_ids()
        assert matched
        score = score_hunting(matched, truth.event_ids)
        assert score.precision == 1.0
        assert score.recall >= 0.2

    def test_hunts_do_not_match_benign_backup_job(self, demo_raptor, demo_simulation):
        """The benign backup job also runs tar→gpg→curl, but toward the backup
        server; the synthesized query's IOC filters must exclude it."""
        report = demo_raptor.hunt(report_by_name("data-leakage").text)
        benign_ids = {event.event_id for event in demo_simulation.trace.benign_events()}
        assert not (report.result.all_matched_event_ids() & benign_ids)

    def test_queries_differ_across_attacks(self, demo_raptor):
        cracking = demo_raptor.hunt(report_by_name("password-cracking").text)
        leakage = demo_raptor.hunt(report_by_name("data-leakage").text)
        assert cracking.query_text != leakage.query_text
        assert "/etc/shadow" in cracking.query_text
        assert "/tmp/upload.tar" in leakage.query_text

    def test_results_stable_across_backends(self, demo_simulation):
        rows = {}
        for backend in ("auto", "graph"):
            raptor = ThreatRaptor(ThreatRaptorConfig(execution_backend=backend))
            raptor.load_trace(demo_simulation.trace)
            rows[backend] = set(raptor.hunt(report_by_name("password-cracking").text).result.rows)
        assert rows["auto"] == rows["graph"]

    def test_results_stable_with_and_without_optimization(self, demo_simulation):
        rows = {}
        for optimize in (True, False):
            raptor = ThreatRaptor(ThreatRaptorConfig(optimize_execution=optimize))
            raptor.load_trace(demo_simulation.trace)
            rows[optimize] = set(raptor.hunt(report_by_name("data-leakage").text).result.rows)
        assert rows[True] == rows[False]

    def test_reduction_does_not_change_hunt_outcome(self, demo_simulation):
        rows = {}
        for reduce_flag in (True, False):
            raptor = ThreatRaptor(ThreatRaptorConfig(apply_reduction=reduce_flag))
            raptor.load_trace(demo_simulation.trace)
            rows[reduce_flag] = set(
                raptor.hunt(report_by_name("password-cracking").text).result.rows
            )
        assert rows[True] == rows[False]
