"""Adversarial campaign simulation and cross-engine differential verification.

``repro.scenarios`` generates many seeded, labeled, multi-host attack
campaigns (:mod:`repro.scenarios.campaign`) from parameterized kill-chain
stages (:mod:`repro.scenarios.stages`), and verifies that every engine
configuration — relational/graph backend, memory/segmented storage, ad-hoc
batch execution vs prepared streaming replay, and crash-resumed streaming —
returns identical hunting answers on all of them
(:mod:`repro.scenarios.differential`), with deterministic fault injection and
crash-recovery equivalence checking in :mod:`repro.scenarios.faults`.
"""

from repro.scenarios.campaign import (
    CampaignGenerator,
    GeneratedCampaign,
    generate_campaigns,
    generate_labeled_trace,
)
from repro.scenarios.differential import (
    BASELINE_CONFIGURATION,
    ENGINE_CONFIGURATIONS,
    CampaignDifferential,
    DifferentialHarness,
    DifferentialReport,
    EngineConfiguration,
    HuntOutcome,
    verify_campaigns,
)
from repro.scenarios.faults import (
    CrashRecoveryHarness,
    FaultPlan,
    FaultyStream,
    FlakySink,
    RecoveryOutcome,
    RecoveryReport,
)
from repro.scenarios.stages import CampaignHunt, CampaignSpec

__all__ = [
    "BASELINE_CONFIGURATION",
    "ENGINE_CONFIGURATIONS",
    "CampaignDifferential",
    "CampaignGenerator",
    "CampaignHunt",
    "CampaignSpec",
    "CrashRecoveryHarness",
    "DifferentialHarness",
    "DifferentialReport",
    "EngineConfiguration",
    "FaultPlan",
    "FaultyStream",
    "FlakySink",
    "GeneratedCampaign",
    "HuntOutcome",
    "RecoveryOutcome",
    "RecoveryReport",
    "generate_campaigns",
    "generate_labeled_trace",
    "verify_campaigns",
]
