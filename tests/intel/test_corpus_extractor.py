"""Tests for corpus-scale extraction (dedup cache, failure isolation)."""

from __future__ import annotations

import pytest

from repro.core.pipeline import ThreatRaptor
from repro.data.osctireports import FIGURE2_REPORT, PASSWORD_CRACKING_REPORT
from repro.intel.corpus import ReportCorpus
from repro.intel.extractor import CorpusExtractor
from repro.nlp.extractor import ThreatBehaviorExtractor


@pytest.fixture(scope="module")
def small_corpus():
    corpus = ReportCorpus()
    corpus.add(FIGURE2_REPORT)
    corpus.add(PASSWORD_CRACKING_REPORT)
    # A byte-identical duplicate, as republished feeds produce.
    corpus.add_text("figure2-duplicate", FIGURE2_REPORT.text)
    return corpus


@pytest.fixture(scope="module")
def extract():
    return ThreatBehaviorExtractor().extract


class TestCorpusExtractor:
    def test_extracts_every_report(self, small_corpus, extract):
        extraction = CorpusExtractor(extract).extract_corpus(small_corpus)
        assert len(extraction.extractions) == len(small_corpus)
        assert not extraction.failures()
        assert extraction.reports_per_second > 0

    def test_duplicate_texts_share_one_extraction(self, small_corpus, extract):
        extraction = CorpusExtractor(extract).extract_corpus(small_corpus)
        assert extraction.cache_hits == 1
        by_id = extraction.by_id()
        duplicate = by_id["figure2-duplicate"]
        assert duplicate.from_cache
        assert duplicate.result is by_id["figure2-data-leakage"].result

    def test_trees_dropped(self, extract):
        corpus = ReportCorpus([FIGURE2_REPORT])
        slim = CorpusExtractor(extract).extract_corpus(corpus)
        assert slim.by_id()["figure2-data-leakage"].result.trees == []

    def test_failure_is_isolated_per_report(self, extract):
        def explode_on_marker(text):
            if "EXPLODE" in text:
                raise RuntimeError("boom")
            return extract(text)

        corpus = ReportCorpus([FIGURE2_REPORT, ("bad", "EXPLODE")])
        extraction = CorpusExtractor(explode_on_marker).extract_corpus(corpus)
        assert extraction.failures() == {"bad": "RuntimeError: boom"}
        assert extraction.by_id()["figure2-data-leakage"].ok

    def test_corpus_pass_extracts_with_the_facades_pipeline(self, small_corpus, monkeypatch):
        raptor = ThreatRaptor()
        texts = []
        extract = raptor.extract_behavior_graph
        monkeypatch.setattr(
            raptor, "extract_behavior_graph", lambda text: texts.append(text) or extract(text)
        )
        result = raptor.hunt_corpus(small_corpus)
        # One call per distinct text: the duplicate shares its original's result.
        assert sorted(texts) == sorted([FIGURE2_REPORT.text, PASSWORD_CRACKING_REPORT.text])
        assert result.summary()["extraction_cache_hits"] == 1
