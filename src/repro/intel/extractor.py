"""Corpus-scale threat behavior extraction.

:class:`CorpusExtractor` runs one single-report extraction pipeline (a
:class:`~repro.nlp.extractor.ThreatBehaviorExtractor`, normally the one a
:class:`~repro.core.pipeline.ThreatRaptor` already holds) over many OSCTI
reports at once.  Real feeds republish the same advisory, so reports whose
text is byte-identical are extracted once and share the result, with hits
counted so the saving is observable.

Failures are isolated per report: one malformed report records an error entry
instead of aborting the corpus.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.intel.corpus import CorpusReport, ReportCorpus
from repro.nlp.extractor import ExtractionResult


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
    """Runs an extraction pipeline over a corpus of OSCTI reports.

    Byte-identical report texts are extracted once and share the result
    (hits are counted in :attr:`CorpusExtraction.cache_hits`).

    Args:
        extract: The single-report pipeline, e.g.
            :meth:`~repro.core.pipeline.ThreatRaptor.extract_behavior_graph`.
    """

    def __init__(self, extract: Callable[[str], ExtractionResult]) -> None:
        self._extract = extract

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
            key = hashlib.sha256(report.text.encode("utf-8")).hexdigest()
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
        """Extract one report text, timing the run.

        The dependency trees are dropped: they are large and the corpus
        pipeline only consumes graphs, relations and IOCs.
        """
        started = time.perf_counter()
        try:
            result = self._extract(text)
        except Exception as exc:  # noqa: BLE001 - isolate per report
            return (0.0, None, f"{type(exc).__name__}: {exc}")
        result.trees = []
        return (time.perf_counter() - started, result, None)


__all__ = ["CorpusExtraction", "CorpusExtractor", "ReportExtraction"]
