"""Extraction accuracy over the annotated corpus, per pipeline variant.

The paper claims the extraction pipeline is "unsupervised, light-weight, and
accurate".  Over every bundled report with relation ground truth this scores
IOC and relation extraction (mean precision / recall / F1) for the full
pipeline, each ablation of its three design choices (IOC protection,
coreference resolution, dependency-tree simplification) and the naive
co-occurrence baseline, then checks the same orderings report by report.
``tests/nlp/test_extractor_ablation.py`` checks the orderings on Figure 2 alone.
"""

from __future__ import annotations

import pytest

from repro.data import ALL_REPORTS
from repro.evaluation import score_ioc_extraction, score_relation_extraction
from repro.nlp.extractor import (
    ExtractionResult,
    NaiveCooccurrenceExtractor,
    ThreatBehaviorExtractor,
)

SCORED_REPORTS = [report for report in ALL_REPORTS if report.relation_ground_truth]

VARIANTS = {
    "full": ThreatBehaviorExtractor,
    "no-ioc-protection": lambda: ThreatBehaviorExtractor(protect_iocs_enabled=False),
    "no-coreference": lambda: ThreatBehaviorExtractor(resolve_coreference=False),
    "no-simplification": lambda: ThreatBehaviorExtractor(simplify_trees=False),
    "naive": NaiveCooccurrenceExtractor,
}

ABLATIONS = ["no-ioc-protection", "no-coreference", "no-simplification"]

by_report = pytest.mark.parametrize("report", SCORED_REPORTS, ids=lambda report: report.name)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _relations(result: ExtractionResult) -> list[tuple[str, str, str]]:
    return [(edge.subject.text, edge.verb, edge.obj.text) for edge in result.graph.edges]


@pytest.fixture(scope="module")
def extractions() -> dict[str, dict[str, ExtractionResult]]:
    """Each variant extracts the corpus once: variant -> report name -> result."""
    table = {}
    for name, build in VARIANTS.items():
        extractor = build()
        table[name] = {report.name: extractor.extract(report.text) for report in SCORED_REPORTS}
    return table


@pytest.fixture(scope="module")
def scores(extractions) -> dict[str, dict[str, float]]:
    """Mean corpus scores per variant."""
    table = {}
    for name, results in extractions.items():
        iocs = [score_ioc_extraction(results[report.name], report) for report in SCORED_REPORTS]
        relations = [
            score_relation_extraction(results[report.name], report) for report in SCORED_REPORTS
        ]
        table[name] = {
            "ioc_recall": _mean([score.recall for score in iocs]),
            "relation_precision": _mean([score.precision for score in relations]),
            "relation_recall": _mean([score.recall for score in relations]),
            "relation_f1": _mean([score.f1 for score in relations]),
        }
    return table


def test_full_pipeline_is_accurate(scores):
    full = scores["full"]
    assert full["ioc_recall"] >= 0.9
    assert full["relation_precision"] >= 0.8
    assert full["relation_recall"] >= 0.8


def test_full_pipeline_beats_the_naive_baseline(scores):
    assert scores["full"]["relation_f1"] > scores["naive"]["relation_f1"]
    assert scores["full"]["relation_precision"] > scores["naive"]["relation_precision"]


@pytest.mark.parametrize("ablation", ["no-ioc-protection", "no-coreference"])
def test_each_ablation_costs_relation_f1(scores, ablation):
    assert scores["full"]["relation_f1"] > scores[ablation]["relation_f1"]


def test_simplification_does_not_change_accuracy(scores):
    """Tree simplification is a performance optimisation, not an accuracy one."""
    assert abs(scores["full"]["relation_f1"] - scores["no-simplification"]["relation_f1"]) < 0.05


@by_report
def test_full_pipeline_beats_the_naive_baseline_on_every_report(extractions, report):
    full = extractions["full"][report.name]
    naive = extractions["naive"][report.name]
    assert (
        score_relation_extraction(full, report).f1 > score_relation_extraction(naive, report).f1
    )
    assert score_ioc_extraction(full, report).recall >= score_ioc_extraction(naive, report).recall


@by_report
@pytest.mark.parametrize("ablation", ["no-ioc-protection", "no-coreference"])
def test_no_ablation_improves_any_report(extractions, ablation, report):
    """The corpus-mean loss is not a trade: no single report gains either."""
    full = score_relation_extraction(extractions["full"][report.name], report)
    ablated = score_relation_extraction(extractions[ablation][report.name], report)
    assert full.f1 >= ablated.f1


@by_report
def test_simplification_extracts_the_same_relations(extractions, report):
    """Pruning the dependency trees drops only what relation extraction ignores."""
    full = extractions["full"][report.name]
    unsimplified = extractions["no-simplification"][report.name]
    assert _relations(unsimplified) == _relations(full)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_ablations_recognise_the_same_iocs(extractions, ablation):
    """IOC recognition runs before the three ablated stages and is unaffected by them."""
    for report in SCORED_REPORTS:
        full = extractions["full"][report.name].iocs
        ablated = extractions[ablation][report.name].iocs
        assert ablated == full, report.name
