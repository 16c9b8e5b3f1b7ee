"""Corpus hunting: synthesized-query dedup and standing-hunt registration.

:class:`CorpusHuntPlanner` closes the loop from a corpus of OSCTI reports to
the continuous hunting service:

1. every report is extracted (:class:`~repro.intel.extractor.CorpusExtractor`,
   optionally in parallel);
2. each behavior graph is synthesized into a TBQL query and canonicalized
   (:mod:`repro.tbql.canonical`), so semantically equivalent queries from
   overlapping reports collide on one canonical key;
3. one standing hunt is registered per *distinct* canonical query — not per
   report — each carrying the full list of originating report ids as
   provenance, which every raised alert then reports;
4. reports whose extraction fails or whose behavior graph screens down to
   nothing auditable (URL/hash-only reports) are recorded as skipped instead
   of aborting the corpus;
5. under the enforcing static-analysis gate
   (:attr:`~repro.core.config.ThreatRaptorConfig.analysis_mode` ``"enforce"``),
   a synthesized query with error-severity lint diagnostics is **rejected
   with provenance**: no hunt is registered, and the result records which
   reports produced it and exactly which diagnostics fired.

Repeated passes over the same service are incremental: a report equivalent to
an already-registered hunt extends that hunt's provenance instead of
registering a duplicate, so a continuously fed corpus keeps the standing-query
set minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import SynthesisError
from repro.intel.corpus import CorpusReport, ReportCorpus
from repro.intel.extractor import CorpusExtraction, CorpusExtractor
from repro.tbql.ast import Query
from repro.tbql.canonical import canonicalize_query, render_canonical_key
from repro.tbql.formatter import format_query

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.pipeline import ThreatRaptor
    from repro.streaming.service import HuntingService
    from repro.tbql.analysis.diagnostics import Diagnostic


@dataclass(frozen=True)
class CorpusHunt:
    """One standing hunt that a corpus pass mapped reports onto."""

    name: str
    canonical_key: str
    query_text: str
    report_ids: tuple[str, ...]
    #: False when the hunt already existed (an earlier pass registered it) and
    #: this pass only extended its provenance.
    newly_registered: bool = True


@dataclass(frozen=True)
class RejectedHunt:
    """A would-be hunt the static-analysis gate rejected, with provenance.

    The query never registers on the service; the corpus result keeps the
    canonical key, the query text, every originating report id and the
    error diagnostics, so the rejection is auditable end to end.
    """

    canonical_key: str
    query_text: str
    report_ids: tuple[str, ...]
    diagnostics: "tuple[Diagnostic, ...]"


@dataclass
class CorpusHuntResult:
    """Everything produced by one :meth:`ThreatRaptor.hunt_corpus` pass."""

    service: "HuntingService"
    extraction: CorpusExtraction
    hunts: list[CorpusHunt] = field(default_factory=list)
    #: report id -> reason, for reports that produced no hunt.
    skipped: dict[str, str] = field(default_factory=dict)
    #: Canonical queries the static-analysis gate refused to register.
    rejected: list[RejectedHunt] = field(default_factory=list)

    @property
    def hunted_report_ids(self) -> list[str]:
        """Report ids that mapped onto a standing hunt."""
        ids: list[str] = []
        for hunt in self.hunts:
            ids.extend(hunt.report_ids)
        return ids

    def summary(self) -> dict[str, Any]:
        """Compact corpus-pass statistics for the CLI and benchmarks."""
        hunted = len(self.hunted_report_ids)
        registered = sum(1 for hunt in self.hunts if hunt.newly_registered)
        return {
            "reports": len(self.extraction.extractions),
            "hunted_reports": hunted,
            "skipped_reports": len(self.skipped),
            "hunts": len(self.hunts),
            "hunts_registered": registered,
            "hunts_reused": len(self.hunts) - registered,
            "hunts_rejected": len(self.rejected),
            "rejected_reports": sum(
                len(rejection.report_ids) for rejection in self.rejected
            ),
            "dedup_ratio": round(1.0 - len(self.hunts) / hunted, 4) if hunted else 0.0,
            "extraction_seconds": round(self.extraction.seconds, 6),
            "extraction_cache_hits": self.extraction.cache_hits,
        }


class CorpusHuntPlanner:
    """Plans and registers the deduped standing hunts for a report corpus."""

    def __init__(self, raptor: "ThreatRaptor", name_prefix: str = "corpus") -> None:
        self._raptor = raptor
        self._name_prefix = name_prefix
        self._extractor = CorpusExtractor(
            resolve_nominal_coreference=raptor.config.resolve_nominal_coreference,
        )

    def register(
        self,
        corpus: "ReportCorpus | Iterable[CorpusReport]",
        service: "HuntingService",
    ) -> CorpusHuntResult:
        """Extract, synthesize, dedup and register ``corpus`` on ``service``."""
        extraction = self._extractor.extract_corpus(corpus)
        result = CorpusHuntResult(service=service, extraction=extraction)

        # Group reports by the canonical key of their synthesized query.
        # Duplicate-text reports share one ExtractionResult object (the
        # extractor dedups them), so synthesis + canonicalization runs once
        # per distinct result, not once per report.
        groups: dict[str, tuple[Query, list[str]]] = {}
        synthesized: dict[int, tuple[Query, str] | SynthesisError] = {}
        for report_extraction in extraction.extractions:
            report_id = report_extraction.report_id
            if report_extraction.result is None:
                result.skipped[report_id] = (
                    f"extraction failed: {report_extraction.error}"
                )
                continue
            result_key = id(report_extraction.result)
            outcome = synthesized.get(result_key)
            if outcome is None:
                try:
                    query = self._raptor.synthesize_query(report_extraction.result.graph)
                    canonical = canonicalize_query(query)
                    outcome = (canonical, render_canonical_key(canonical))
                except SynthesisError as exc:
                    outcome = exc
                synthesized[result_key] = outcome
            if isinstance(outcome, SynthesisError):
                result.skipped[report_id] = f"synthesis failed: {outcome}"
                continue
            canonical, key = outcome
            if key not in groups:
                groups[key] = (canonical, [])
            groups[key][1].append(report_id)

        taken_names = {standing.name for standing in service.hunts}
        counter = 0
        for key, (canonical, report_ids) in groups.items():
            existing = service.hunt_by_canonical_key(key)
            if existing is not None:
                standing = service.extend_hunt_provenance(existing.name, report_ids)
                result.hunts.append(
                    CorpusHunt(
                        name=standing.name,
                        canonical_key=key,
                        query_text=standing.query_text,
                        report_ids=tuple(report_ids),
                        newly_registered=False,
                    )
                )
                continue
            if self._raptor.config.analysis_mode == "enforce":
                analysis = self._raptor.analyze_query(canonical)
                if analysis.has_errors():
                    result.rejected.append(
                        RejectedHunt(
                            canonical_key=key,
                            query_text=format_query(canonical),
                            report_ids=tuple(report_ids),
                            diagnostics=tuple(analysis.errors),
                        )
                    )
                    continue
            counter += 1
            name = f"{self._name_prefix}-{counter}"
            while name in taken_names:
                counter += 1
                name = f"{self._name_prefix}-{counter}"
            taken_names.add(name)
            service.register_hunt(
                name, query=canonical, provenance=report_ids, canonical_key=key
            )
            result.hunts.append(
                CorpusHunt(
                    name=name,
                    canonical_key=key,
                    query_text=format_query(canonical),
                    report_ids=tuple(report_ids),
                    newly_registered=True,
                )
            )
        return result


__all__ = ["CorpusHunt", "CorpusHuntPlanner", "CorpusHuntResult", "RejectedHunt"]
