"""Cross-engine differential verification over generated campaigns.

The acceptance harness of this test module runs ≥8 distinct generated
campaigns' expected TBQL hunts through every engine configuration —
relational/graph backend, memory/segmented storage, ad-hoc batch execution vs
prepared streaming replay — and asserts that every
configuration returns identical matched event-id sets and identical hunting
precision/recall/F1 on each campaign.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    BASELINE_CONFIGURATION,
    ENGINE_CONFIGURATIONS,
    DifferentialHarness,
    EngineConfiguration,
    generate_campaigns,
)

CAMPAIGN_COUNT = 8


@pytest.fixture(scope="module")
def campaigns():
    return generate_campaigns(CAMPAIGN_COUNT, base_seed=1200)


@pytest.fixture(scope="module")
def harness():
    return DifferentialHarness()


@pytest.fixture(scope="module")
def report(harness, campaigns):
    return harness.run(campaigns)


class TestConfigurationMatrix:
    def test_matrix_covers_every_axis_both_ways(self):
        assert {config.backend for config in ENGINE_CONFIGURATIONS} == {"auto", "graph"}
        assert {config.streaming for config in ENGINE_CONFIGURATIONS} == {True, False}
        assert {config.storage for config in ENGINE_CONFIGURATIONS} == {"memory", "segments"}
        assert {config.crash_resume for config in ENGINE_CONFIGURATIONS} == {True, False}
        assert len(ENGINE_CONFIGURATIONS) == 8

    def test_configuration_names_unique(self):
        names = [config.name for config in ENGINE_CONFIGURATIONS]
        assert len(names) == len(set(names))

    def test_oracle_axes_are_gone(self):
        for removed in ("relational_executor", "graph_matcher"):
            with pytest.raises(TypeError):
                EngineConfiguration(name="x", **{removed: "reference"})


class TestDifferentialConsistency:
    def test_campaign_set_is_distinct(self, campaigns):
        assert len(campaigns) >= 8
        assert len({campaign.name for campaign in campaigns}) == len(campaigns)
        assert len({campaign.spec.variants for campaign in campaigns}) >= 4

    def test_all_configurations_agree_on_every_campaign(self, report):
        assert report.consistent, "\n".join(report.mismatches())

    def test_report_covers_full_matrix(self, report, campaigns):
        assert len(report.campaigns) == len(campaigns)
        expected_outcomes = len(ENGINE_CONFIGURATIONS) * 2  # two hunts per campaign
        for differential in report.campaigns:
            assert len(differential.outcomes) == expected_outcomes
            assert set(differential.campaign_scores) == set(report.configurations)

    def test_hunts_recover_their_chains_exactly(self, report, campaigns):
        by_name = {campaign.name: campaign for campaign in campaigns}
        for differential in report.campaigns:
            campaign = by_name[differential.campaign]
            for hunt in campaign.hunts:
                outcome = differential.outcome(BASELINE_CONFIGURATION.name, hunt.name)
                assert outcome.matched_event_ids == hunt.expected_event_ids
                assert outcome.score.as_dict() == {
                    "precision": 1.0,
                    "recall": 1.0,
                    "f1": 1.0,
                }

    def test_campaign_level_scores_identical_across_configurations(self, report):
        for differential in report.campaigns:
            scores = {
                tuple(sorted(score.as_dict().items()))
                for score in differential.campaign_scores.values()
            }
            assert len(scores) == 1


class TestDifferentialDetectsDivergence:
    def test_mismatch_is_reported(self, harness, campaigns):
        differential = harness.run_campaign(campaigns[0])
        # Corrupt one streaming outcome to prove the comparison has teeth.
        from dataclasses import replace as dc_replace

        for index, outcome in enumerate(differential.outcomes):
            if outcome.configuration != BASELINE_CONFIGURATION.name:
                differential.outcomes[index] = dc_replace(
                    outcome,
                    matched_event_ids=frozenset(set(outcome.matched_event_ids) | {10**9}),
                )
                break
        problems = differential.mismatches()
        assert problems
        assert "disagrees" in problems[0]


class TestReducedConfigurationSets:
    def test_single_configuration_harness(self, campaigns):
        harness = DifferentialHarness(
            configurations=(EngineConfiguration(name="only-relational"),)
        )
        report = harness.run(campaigns[:1])
        assert report.consistent
        assert report.summary()["configurations"] == ["only-relational"]

    def test_empty_configuration_set_rejected(self):
        with pytest.raises(ValueError):
            DifferentialHarness(configurations=())

    def test_reduction_disabled_still_consistent(self, campaigns):
        harness = DifferentialHarness(apply_reduction=False)
        report = harness.run(campaigns[:2])
        assert report.consistent, "\n".join(report.mismatches())
