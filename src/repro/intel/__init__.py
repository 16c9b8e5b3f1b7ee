"""Corpus-scale OSCTI intelligence: many reports in, few standing hunts out.

The paper's front half (OSCTI report text → IOC-protected NLP extraction →
threat behavior graph → synthesized TBQL query) runs one report at a time; a
production deployment ingests a continuous *corpus* of reports from
overlapping feeds.  This package scales that front half to match the
streaming/standing-hunt back half:

* :class:`~repro.intel.corpus.ReportCorpus` loads report corpora — the
  bundled annotated set, deterministic feed-variant expansions, directories
  of text files, JSONL feed dumps;
* :class:`~repro.intel.extractor.CorpusExtractor` runs one extraction
  pipeline over the whole corpus with byte-identical-text dedup and
  per-report failure isolation;
* :class:`~repro.intel.hunt.CorpusHuntPlanner` canonicalizes every
  synthesized query (:mod:`repro.tbql.canonical`) so semantically equivalent
  queries from overlapping reports register as **one** standing hunt in the
  :class:`~repro.streaming.service.HuntingService`, with per-report
  provenance carried onto every raised alert.

The :meth:`repro.core.pipeline.ThreatRaptor.hunt_corpus` facade and the CLI
``corpus`` subcommand wire these together.
"""

from repro.intel.corpus import CorpusReport, ReportCorpus
from repro.intel.extractor import CorpusExtraction, CorpusExtractor, ReportExtraction
from repro.intel.hunt import CorpusHunt, CorpusHuntPlanner, CorpusHuntResult

__all__ = [
    "CorpusExtraction",
    "CorpusExtractor",
    "CorpusHunt",
    "CorpusHuntPlanner",
    "CorpusHuntResult",
    "CorpusReport",
    "ReportCorpus",
    "ReportExtraction",
]
