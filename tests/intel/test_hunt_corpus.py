"""Tests for corpus hunting: dedup, provenance, incremental registration."""

from __future__ import annotations

import pytest

from repro.auditing.workload.attacks import DataLeakageAttack, PasswordCrackingAttack
from repro.auditing.workload.generator import HostSimulator
from repro.core.pipeline import ThreatRaptor
from repro.data.osctireports import PHISHING_INFRASTRUCTURE_REPORT, corpus_variants
from repro.intel.corpus import ReportCorpus
from repro.streaming.alerts import ListSink
from repro.streaming.source import ReplaySource


@pytest.fixture(scope="module")
def overlapping_corpus():
    """>= 20 overlapping reports plus one unsynthesizable report."""
    corpus = ReportCorpus(corpus_variants(22, seed=13))
    corpus.add(PHISHING_INFRASTRUCTURE_REPORT)
    return corpus


@pytest.fixture(scope="module")
def attack_simulation():
    return (
        HostSimulator(seed=5)
        .add_default_benign()
        .add_attack(PasswordCrackingAttack())
        .add_attack(DataLeakageAttack())
        .run()
    )


class TestHuntCorpusDedup:
    def test_registers_strictly_fewer_hunts_than_reports(self, overlapping_corpus):
        raptor = ThreatRaptor()
        result = raptor.hunt_corpus(overlapping_corpus)
        assert len(overlapping_corpus) >= 20
        hunted = len(result.hunted_report_ids)
        assert hunted >= 20
        assert len(result.hunts) < hunted
        # One hunt per distinct base report (five auditable bases).
        assert len(result.hunts) == 5
        assert len(result.service.hunts) == 5

    def test_every_variant_maps_to_its_base_group(self, overlapping_corpus):
        raptor = ThreatRaptor()
        result = raptor.hunt_corpus(overlapping_corpus)
        for hunt in result.hunts:
            bases = {report_id.rsplit("-v", 1)[0] for report_id in hunt.report_ids}
            assert len(bases) == 1

    def test_unsynthesizable_report_is_skipped_not_fatal(self, overlapping_corpus):
        raptor = ThreatRaptor()
        result = raptor.hunt_corpus(overlapping_corpus)
        assert "phishing-infrastructure" in result.skipped
        assert "synthesis failed" in result.skipped["phishing-infrastructure"]

    def test_summary_shape(self, overlapping_corpus):
        raptor = ThreatRaptor()
        summary = raptor.hunt_corpus(overlapping_corpus).summary()
        assert summary["reports"] == len(overlapping_corpus)
        assert summary["hunted_reports"] == 22
        assert summary["skipped_reports"] == 1
        assert summary["hunts"] == 5
        assert 0.0 < summary["dedup_ratio"] < 1.0


class TestHuntCorpusIncremental:
    def test_second_pass_reuses_existing_hunts(self):
        raptor = ThreatRaptor()
        first = raptor.hunt_corpus(corpus_variants(10, seed=13))
        service = first.service
        second = raptor.hunt_corpus(corpus_variants(10, seed=99), service=service)
        assert all(not hunt.newly_registered for hunt in second.hunts)
        assert second.summary()["hunts_reused"] == len(second.hunts)
        # The hunt set did not grow; provenance did.
        assert len(service.hunts) == len(first.hunts)
        for standing in service.hunts:
            assert len(standing.provenance) >= 2

    def test_disjoint_second_pass_registers_new_hunts(self):
        raptor = ThreatRaptor()
        first = raptor.hunt_corpus(corpus_variants(5, seed=13))
        custom = ReportCorpus(
            [("custom", "The attacker used /usr/bin/nc to read /etc/hostname.")]
        )
        second = raptor.hunt_corpus(custom, service=first.service)
        assert len(second.hunts) == 1
        assert second.hunts[0].newly_registered
        assert len(first.service.hunts) == len(first.hunts) + 1


class TestHuntCorpusAlerts:
    def test_alerts_carry_originating_report_ids(self, attack_simulation):
        raptor = ThreatRaptor()
        sink = ListSink()
        result = raptor.hunt_corpus(corpus_variants(20, seed=13), sinks=(sink,))
        alerts = result.service.run(ReplaySource(attack_simulation))
        assert alerts
        hunts_by_name = {hunt.name: hunt for hunt in result.hunts}
        for alert in alerts:
            assert alert.reports
            assert set(alert.reports) == set(hunts_by_name[alert.hunt].report_ids)
        # Sinks received the same provenance-carrying alerts.
        assert sink.alerts == alerts

    def test_alert_to_dict_includes_reports(self, attack_simulation):
        raptor = ThreatRaptor()
        result = raptor.hunt_corpus(corpus_variants(8, seed=13))
        alerts = result.service.run(ReplaySource(attack_simulation))
        assert alerts
        payload = alerts[0].to_dict()
        assert payload["reports"] == list(alerts[0].reports)
        assert "reports=" in alerts[0].describe()
