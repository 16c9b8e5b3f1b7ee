"""Tests for corpus-scale extraction (dedup cache, failure isolation)."""

from __future__ import annotations

import pytest

from repro.data.osctireports import FIGURE2_REPORT, PASSWORD_CRACKING_REPORT
from repro.intel.corpus import ReportCorpus
from repro.intel.extractor import (
    DEFAULT_FLAGS,
    CorpusExtractor,
    shared_extractor,
)


@pytest.fixture(scope="module")
def small_corpus():
    corpus = ReportCorpus()
    corpus.add(FIGURE2_REPORT)
    corpus.add(PASSWORD_CRACKING_REPORT)
    # A byte-identical duplicate, as republished feeds produce.
    corpus.add_text("figure2-duplicate", FIGURE2_REPORT.text)
    return corpus


class TestCorpusExtractor:
    def test_extracts_every_report(self, small_corpus):
        extraction = CorpusExtractor().extract_corpus(small_corpus)
        assert len(extraction.extractions) == len(small_corpus)
        assert not extraction.failures()
        assert extraction.reports_per_second > 0

    def test_duplicate_texts_share_one_extraction(self, small_corpus):
        extraction = CorpusExtractor().extract_corpus(small_corpus)
        assert extraction.cache_hits == 1
        by_id = extraction.by_id()
        duplicate = by_id["figure2-duplicate"]
        assert duplicate.from_cache
        assert duplicate.result is by_id["figure2-data-leakage"].result

    def test_dedup_can_be_disabled(self, small_corpus):
        extraction = CorpusExtractor(dedup_texts=False).extract_corpus(small_corpus)
        assert extraction.cache_hits == 0
        by_id = extraction.by_id()
        assert by_id["figure2-duplicate"].result is not by_id["figure2-data-leakage"].result

    def test_trees_dropped(self):
        corpus = ReportCorpus([FIGURE2_REPORT])
        slim = CorpusExtractor().extract_corpus(corpus)
        assert slim.by_id()["figure2-data-leakage"].result.trees == []

    def test_failure_is_isolated_per_report(self, monkeypatch):
        import repro.intel.extractor as extractor_module

        original = extractor_module._extract_text

        def explode_on_marker(flags, text):
            if "EXPLODE" in text:
                raise RuntimeError("boom")
            return original(flags, text)

        monkeypatch.setattr(extractor_module, "_extract_text", explode_on_marker)
        corpus = ReportCorpus([FIGURE2_REPORT, ("bad", "EXPLODE")])
        extraction = CorpusExtractor().extract_corpus(corpus)
        assert extraction.failures() == {"bad": "RuntimeError: boom"}
        assert extraction.by_id()["figure2-data-leakage"].ok

    def test_shared_extractor_is_memoized(self):
        assert shared_extractor(DEFAULT_FLAGS) is shared_extractor(DEFAULT_FLAGS)
        assert shared_extractor(DEFAULT_FLAGS) is not shared_extractor((True, True, True, True))
