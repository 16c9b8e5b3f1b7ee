"""Cross-engine differential verification harness.

The repo executes TBQL hunts through several interchangeable machinery
configurations: the relational vs. the graph backend, in-memory vs. durable
segmented storage, and one-shot batch loading with ad-hoc execution vs.
micro-batched streaming replay with watermark-windowed prepared standing
hunts.  (The per-data-query oracles — row-dict executor, DFS matcher, sqlite
— live under ``tests/oracles/`` and are compared query by query there.)

This module is the end-to-end differential oracle: it runs every generated
campaign's expected TBQL hunts (:mod:`repro.scenarios.campaign`) through every
engine configuration and verifies that all of them return the **same matched
audit event ids** — and therefore identical hunting precision/recall/F1
against the campaign's ground truth.  Any divergence is reported with the
campaign, hunt and configuration that disagreed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.evaluation import PrecisionRecall, score_hunting
from repro.scenarios.campaign import GeneratedCampaign, generate_campaigns
from repro.streaming.source import ReplaySource


@dataclass(frozen=True)
class EngineConfiguration:
    """One way of executing a TBQL hunt over an audit trace.

    The axes mirror the repo's execution machinery:

    * ``backend`` — ``"auto"`` (event patterns on the relational tables, the
      rows named ``relational-*``) vs. ``"graph"`` (everything a path search);
    * ``streaming`` — one-shot batch load with ad-hoc ``execute`` vs.
      micro-batched replay through watermark-windowed standing hunts
      (re-executed from one cached ``PreparedQuery``);
    * ``crash_resume`` — the streaming run is additionally killed at a batch
      boundary and resumed from checkpoint + alert journal
      (:mod:`repro.scenarios.faults`); recovery must not change the answers.
    * ``storage`` — in-memory relational store vs. the durable on-disk
      segmented store (:mod:`repro.storage.segment`), each run owning a
      temporary data directory.
    """

    name: str
    backend: str = "auto"
    streaming: bool = False
    crash_resume: bool = False
    storage: str = "memory"
    #: Deliberately small seal threshold so campaign-sized traces produce
    #: several sealed segments per run — exercising seal/prune/merge paths,
    #: not just the memtable.
    segment_rows: int = 256

    def pipeline_config(self) -> ThreatRaptorConfig:
        """The :class:`ThreatRaptorConfig` this configuration stands for."""
        return ThreatRaptorConfig(
            execution_backend=self.backend,
            storage=self.storage,
            segment_rows=self.segment_rows,
        )


#: The configuration matrix the differential tests run: every axis (backend,
#: replay mode, storage) is exercised in both directions.
ENGINE_CONFIGURATIONS: tuple[EngineConfiguration, ...] = (
    EngineConfiguration(name="relational-adhoc-batch"),
    EngineConfiguration(name="graph-adhoc-batch", backend="graph"),
    EngineConfiguration(name="relational-prepared-streaming", streaming=True),
    EngineConfiguration(name="graph-prepared-streaming", backend="graph", streaming=True),
    EngineConfiguration(
        name="relational-prepared-streaming-crashresume", streaming=True, crash_resume=True
    ),
    EngineConfiguration(name="segments-adhoc-batch", storage="segments"),
    EngineConfiguration(name="segments-prepared-streaming", streaming=True, storage="segments"),
    EngineConfiguration(
        name="segments-prepared-streaming-crashresume",
        streaming=True,
        crash_resume=True,
        storage="segments",
    ),
)

#: The configuration every other one is compared against.
BASELINE_CONFIGURATION = ENGINE_CONFIGURATIONS[0]


@dataclass(frozen=True)
class HuntOutcome:
    """What one configuration answered for one campaign hunt."""

    configuration: str
    hunt: str
    matched_event_ids: frozenset[int]
    #: Score against the hunt's own expected chain event ids.
    score: PrecisionRecall


@dataclass
class CampaignDifferential:
    """All configurations' answers for one campaign, plus the comparison."""

    campaign: str
    #: Name of the configuration the others are compared against (the first
    #: configuration of the harness that produced this differential).
    baseline: str = BASELINE_CONFIGURATION.name
    outcomes: list[HuntOutcome] = field(default_factory=list)
    #: Per-configuration score of the union of all hunt matches against the
    #: campaign's full ground-truth event ids.
    campaign_scores: dict[str, PrecisionRecall] = field(default_factory=dict)

    def outcome(self, configuration: str, hunt: str) -> HuntOutcome:
        for outcome in self.outcomes:
            if outcome.configuration == configuration and outcome.hunt == hunt:
                return outcome
        raise KeyError(f"no outcome for configuration={configuration!r} hunt={hunt!r}")

    def mismatches(self, baseline: str | None = None) -> list[str]:
        """Human-readable divergence descriptions (empty when consistent)."""
        baseline = self.baseline if baseline is None else baseline
        problems: list[str] = []
        hunts = sorted({outcome.hunt for outcome in self.outcomes})
        for hunt in hunts:
            reference = self.outcome(baseline, hunt)
            for outcome in self.outcomes:
                if outcome.hunt != hunt or outcome.configuration == baseline:
                    continue
                if outcome.matched_event_ids != reference.matched_event_ids:
                    missing = sorted(reference.matched_event_ids - outcome.matched_event_ids)
                    extra = sorted(outcome.matched_event_ids - reference.matched_event_ids)
                    problems.append(
                        f"{self.campaign}/{hunt}: {outcome.configuration} disagrees with "
                        f"{baseline} (missing={missing}, extra={extra})"
                    )
                # Per-hunt scores are derived from the matched sets against a
                # fixed expectation, so equal sets imply equal scores; the
                # explicit P/R/F1 comparison happens at campaign level below.
        reference_campaign = self.campaign_scores.get(baseline)
        for configuration, score in self.campaign_scores.items():
            if (
                reference_campaign is not None
                and configuration != baseline
                and score.as_dict() != reference_campaign.as_dict()
            ):
                problems.append(
                    f"{self.campaign}: campaign-level P/R/F1 of {configuration} "
                    f"{score.as_dict()} != {baseline} {reference_campaign.as_dict()}"
                )
        return problems


@dataclass
class DifferentialReport:
    """The harness result over a whole campaign set."""

    configurations: tuple[str, ...]
    campaigns: list[CampaignDifferential] = field(default_factory=list)

    def mismatches(self) -> list[str]:
        return [problem for diff in self.campaigns for problem in diff.mismatches()]

    @property
    def consistent(self) -> bool:
        return not self.mismatches()

    def summary(self) -> dict[str, object]:
        return {
            "campaigns": len(self.campaigns),
            "configurations": list(self.configurations),
            "hunts_compared": sum(len(diff.outcomes) for diff in self.campaigns),
            "mismatches": self.mismatches(),
        }


class DifferentialHarness:
    """Runs campaigns' expected hunts through every engine configuration.

    Args:
        configurations: Engine configurations to compare (defaults to the full
            :data:`ENGINE_CONFIGURATIONS` matrix; the first one is the
            comparison baseline).
        batch_size: Streaming replay micro-batch size.
        apply_reduction: Run Causality Preserved Reduction before storage —
            applied identically on the batch and streaming paths, so it is
            itself under differential test.
    """

    def __init__(
        self,
        configurations: tuple[EngineConfiguration, ...] = ENGINE_CONFIGURATIONS,
        batch_size: int = 96,
        apply_reduction: bool = True,
    ) -> None:
        if not configurations:
            raise ValueError("DifferentialHarness needs at least one configuration")
        self._configurations = configurations
        self._batch_size = batch_size
        self._apply_reduction = apply_reduction

    @property
    def configurations(self) -> tuple[EngineConfiguration, ...]:
        return self._configurations

    # -- execution -----------------------------------------------------------

    def matched_event_ids(
        self, configuration: EngineConfiguration, campaign: GeneratedCampaign
    ) -> dict[str, set[int]]:
        """Run every expected hunt of ``campaign`` under one configuration.

        Returns a mapping of hunt name to the set of matched audit event ids.
        """
        if configuration.streaming:
            return self._hunt_streaming(configuration, campaign)
        return self._hunt_batch(configuration, campaign)

    def _pipeline(self, configuration: EngineConfiguration) -> ThreatRaptor:
        config = replace(
            configuration.pipeline_config(), apply_reduction=self._apply_reduction
        )
        return ThreatRaptor(config)

    def _hunt_batch(
        self, configuration: EngineConfiguration, campaign: GeneratedCampaign
    ) -> dict[str, set[int]]:
        raptor = self._pipeline(configuration)
        raptor.load_trace(campaign.trace)
        matched: dict[str, set[int]] = {}
        for hunt in campaign.hunts:
            result = raptor.execute_query(hunt.query_text)
            matched[hunt.name] = set(result.all_matched_event_ids())
        return matched

    def _hunt_streaming(
        self, configuration: EngineConfiguration, campaign: GeneratedCampaign
    ) -> dict[str, set[int]]:
        if configuration.crash_resume:
            return self._hunt_streaming_crash_resume(configuration, campaign)
        raptor = self._pipeline(configuration)
        service = raptor.watch(batch_size=self._batch_size)
        for hunt in campaign.hunts:
            service.register_hunt(hunt.name, query=hunt.query_text)
        service.run(ReplaySource(campaign.trace))
        return {hunt.name: service.matched_event_ids(hunt.name) for hunt in campaign.hunts}

    def _hunt_streaming_crash_resume(
        self, configuration: EngineConfiguration, campaign: GeneratedCampaign
    ) -> dict[str, set[int]]:
        # The streaming run is killed mid-stream and resumed from its
        # checkpoint + journal; the recovered answers join the differential
        # comparison like any other engine path.
        import tempfile

        from repro.scenarios.faults import CrashRecoveryHarness

        with tempfile.TemporaryDirectory(prefix="crashresume-") as workdir:
            harness = CrashRecoveryHarness(
                workdir,
                batch_size=self._batch_size,
                pipeline_factory=lambda: self._pipeline(configuration),
            )
            boundary = max(1, harness.batch_count(campaign) // 2)
            return harness.crash_and_resume(campaign, boundary).matched

    # -- comparison ----------------------------------------------------------

    def run_campaign(self, campaign: GeneratedCampaign) -> CampaignDifferential:
        """Run one campaign through every configuration and compare."""
        differential = CampaignDifferential(
            campaign=campaign.name, baseline=self._configurations[0].name
        )
        for configuration in self._configurations:
            matched_by_hunt = self.matched_event_ids(configuration, campaign)
            all_matched: set[int] = set()
            for hunt in campaign.hunts:
                matched = matched_by_hunt[hunt.name]
                all_matched.update(matched)
                differential.outcomes.append(
                    HuntOutcome(
                        configuration=configuration.name,
                        hunt=hunt.name,
                        matched_event_ids=frozenset(matched),
                        score=score_hunting(matched, hunt.expected_event_ids),
                    )
                )
            differential.campaign_scores[configuration.name] = score_hunting(
                all_matched, campaign.ground_truth.event_ids
            )
        return differential

    def run(self, campaigns: list[GeneratedCampaign]) -> DifferentialReport:
        """Run a campaign set through the full configuration matrix."""
        report = DifferentialReport(
            configurations=tuple(config.name for config in self._configurations)
        )
        for campaign in campaigns:
            report.campaigns.append(self.run_campaign(campaign))
        return report


def verify_campaigns(
    count: int = 8, base_seed: int = 1200, noise_scale: float = 0.5
) -> DifferentialReport:
    """Generate ``count`` campaigns and differential-verify all engine paths."""
    harness = DifferentialHarness()
    return harness.run(generate_campaigns(count, base_seed=base_seed, noise_scale=noise_scale))
