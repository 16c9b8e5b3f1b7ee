"""Corpus-scale threat behavior extraction.

:class:`CorpusExtractor` runs the single-report
:class:`~repro.nlp.extractor.ThreatBehaviorExtractor` over many OSCTI reports
at once:

* **Shared memoized setup** — the extractor (tokenizer, POS lexicons,
  dependency parser, coreference resolver) is built once per configuration
  and reused for every report, instead of being rebuilt per report.
* **Duplicate-text dedup** — real feeds republish the same advisory; reports
  whose text is byte-identical are extracted once and share the result, with
  hits counted so the saving is observable.

Failures are isolated per report: one malformed report records an error entry
instead of aborting the corpus.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from repro.intel.corpus import CorpusReport, ReportCorpus
from repro.nlp.extractor import ExtractionResult, ThreatBehaviorExtractor

#: Hashable extractor configuration: (resolve_nominal_coreference,
#: protect_iocs_enabled, resolve_coreference, simplify_trees).
ExtractorFlags = tuple[bool, bool, bool, bool]

DEFAULT_FLAGS: ExtractorFlags = (False, True, True, True)


@lru_cache(maxsize=None)
def shared_extractor(flags: ExtractorFlags = DEFAULT_FLAGS) -> ThreatBehaviorExtractor:
    """The memoized extraction pipeline for one configuration."""
    resolve_nominal, protect, coref, simplify = flags
    return ThreatBehaviorExtractor(
        resolve_nominal_coreference=resolve_nominal,
        protect_iocs_enabled=protect,
        resolve_coreference=coref,
        simplify_trees=simplify,
    )


def _extract_text(flags: ExtractorFlags, text: str) -> tuple[float, ExtractionResult]:
    """Extract one report text, timing the run.

    The dependency trees are dropped: they are large and the corpus pipeline
    only consumes graphs, relations and IOCs.
    """
    started = time.perf_counter()
    result = shared_extractor(flags).extract(text)
    result.trees = []
    return (time.perf_counter() - started, result)


@dataclass
class ReportExtraction:
    """Extraction outcome for one corpus report."""

    report_id: str
    result: ExtractionResult | None = None
    error: str | None = None
    seconds: float = 0.0
    #: True when the result was shared from an identical-text report instead
    #: of being extracted again.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class CorpusExtraction:
    """Everything produced by one corpus extraction pass."""

    extractions: list[ReportExtraction] = field(default_factory=list)
    seconds: float = 0.0
    cache_hits: int = 0

    def by_id(self) -> dict[str, ReportExtraction]:
        return {extraction.report_id: extraction for extraction in self.extractions}

    def results(self) -> list[tuple[str, ExtractionResult]]:
        """(report id, extraction result) for every successful report."""
        return [
            (extraction.report_id, extraction.result)
            for extraction in self.extractions
            if extraction.result is not None
        ]

    def failures(self) -> dict[str, str]:
        """report id -> error message for every failed report."""
        return {
            extraction.report_id: extraction.error
            for extraction in self.extractions
            if extraction.error is not None
        }

    @property
    def reports_per_second(self) -> float:
        return len(self.extractions) / self.seconds if self.seconds > 0 else 0.0


class CorpusExtractor:
    """Runs the extraction pipeline over a corpus of OSCTI reports.

    Args:
        dedup_texts: Extract byte-identical report texts once and share the
            result (hits are counted in :attr:`CorpusExtraction.cache_hits`).
        resolve_nominal_coreference: Forwarded to the extraction pipeline.
    """

    def __init__(
        self,
        dedup_texts: bool = True,
        resolve_nominal_coreference: bool = False,
    ) -> None:
        self.dedup_texts = dedup_texts
        self._flags: ExtractorFlags = (resolve_nominal_coreference, True, True, True)

    # -- public API ----------------------------------------------------------

    def extract_corpus(
        self,
        corpus: "ReportCorpus | Iterable[CorpusReport]",
    ) -> CorpusExtraction:
        """Extract every report of ``corpus`` and return per-report outcomes."""
        reports = list(ReportCorpus.coerce(corpus))
        started = time.perf_counter()

        # Group identical texts so each distinct text is extracted exactly once.
        members: dict[str, list[CorpusReport]] = {}
        for report in reports:
            key = (
                hashlib.sha256(report.text.encode("utf-8")).hexdigest()
                if self.dedup_texts
                else report.report_id
            )
            members.setdefault(key, []).append(report)

        cache_hits = 0
        outcome_by_id: dict[str, ReportExtraction] = {}
        for group in members.values():
            seconds, result, error = self._extract_one(group[0].text)
            for position, report in enumerate(group):
                shared = position > 0
                if shared:
                    cache_hits += 1
                outcome_by_id[report.report_id] = ReportExtraction(
                    report_id=report.report_id,
                    result=result,
                    error=error,
                    seconds=0.0 if shared else seconds,
                    from_cache=shared,
                )
        # Preserve the corpus order on the way out.
        extractions = [outcome_by_id[report.report_id] for report in reports]

        return CorpusExtraction(
            extractions=extractions,
            seconds=time.perf_counter() - started,
            cache_hits=cache_hits,
        )

    # -- internals -----------------------------------------------------------

    def _extract_one(
        self, text: str
    ) -> tuple[float, ExtractionResult | None, str | None]:
        try:
            seconds, result = _extract_text(self._flags, text)
            return (seconds, result, None)
        except Exception as exc:  # noqa: BLE001 - isolate per report
            return (0.0, None, f"{type(exc).__name__}: {exc}")


__all__ = [
    "CorpusExtraction",
    "CorpusExtractor",
    "DEFAULT_FLAGS",
    "ExtractorFlags",
    "ReportExtraction",
    "shared_extractor",
]
