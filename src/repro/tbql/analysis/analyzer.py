"""The multi-pass TBQL static analyzer.

:class:`StaticAnalyzer` runs after :mod:`repro.tbql.semantics` (the query must
already be semantically valid) and before any plan is prepared or hunt
registered.  It chains four passes — satisfiability, dead/redundant
predicates, cost/cardinality, cross-backend portability — over a shared
:class:`AnalysisContext`, applies the :class:`AnalysisPolicy` to the emitted
diagnostics and returns an :class:`AnalysisReport`.

The analyzer never raises on findings; gating is the caller's decision via
:meth:`AnalysisReport.raise_for_errors` (see the execution engine's
``analysis_mode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Protocol

from repro.auditing.entities import DEFAULT_ATTRIBUTE, EntityType
from repro.tbql.analysis.cost import CostPass, store_statistics
from repro.tbql.analysis.deadcode import DeadCodePass
from repro.tbql.analysis.diagnostics import (
    AnalysisPolicy,
    AnalysisReport,
    Diagnostic,
    sort_diagnostics,
)
from repro.tbql.analysis.portability import PortabilityPass
from repro.tbql.analysis.satisfiability import SatisfiabilityPass
from repro.tbql.ast import Query
from repro.tbql.formatter import format_query
from repro.tbql.parser import parse_query
from repro.tbql.semantics import AnalyzedQuery, SemanticAnalyzer


@dataclass
class AnalysisContext:
    """Everything a pass may consult about the query under analysis."""

    query: Query
    analyzed: AnalyzedQuery
    policy: AnalysisPolicy
    #: Combined backend statistics (``AuditStore.statistics()`` shape), or
    #: ``None`` when analyzing without a store — stats-backed rules skip then.
    statistics: Mapping[str, Any] | None = None

    @staticmethod
    def default_attribute(entity_type: EntityType) -> str:
        """The attribute an empty filter attribute name resolves to."""
        return DEFAULT_ATTRIBUTE[entity_type]


class AnalysisPass(Protocol):
    """One analysis pass: context in, diagnostics out."""

    name: str

    def run(self, context: AnalysisContext) -> list[Diagnostic]: ...


class StaticAnalyzer:
    """Runs every analysis pass over a query and applies the policy.

    Args:
        store: Optional :class:`~repro.storage.loader.AuditStore` whose index
            statistics feed the cost pass; rules needing statistics are
            skipped without one.
        policy: Severity/threshold policy; :meth:`AnalysisPolicy.default`
            when omitted.

    Reports are memoized per (formatted query text, store event count):
    the admission gate analyzes the same query at corpus registration, at
    monitor registration and again at plan preparation, and a frozen
    :class:`AnalysisReport` is safe to share between those callers.  The
    event count invalidates cached cost diagnostics when the store grows;
    stores without the :class:`AuditStore` shape never hit the cache.
    """

    _CACHE_LIMIT = 128

    def __init__(
        self,
        store: Any = None,
        policy: AnalysisPolicy | None = None,
    ) -> None:
        self._store = store
        self.policy = policy or AnalysisPolicy.default()
        self._semantics = SemanticAnalyzer()
        self._cache: dict[tuple[str, Any], AnalysisReport] = {}
        self._passes: tuple[AnalysisPass, ...] = (
            SatisfiabilityPass(),
            DeadCodePass(),
            CostPass(),
            PortabilityPass(),
        )

    def _store_token(self) -> Any:
        """A cheap equality token for the store's analyzer-visible state."""
        if self._store is None:
            return None
        if not hasattr(self._store, "loaded_trace"):
            # Unknown store shape — no way to detect staleness, so make the
            # token unique and let every lookup miss.
            return object()
        trace = self._store.loaded_trace
        count = len(trace.events) if trace is not None else 0
        return (id(self._store), count)

    def analyze(
        self, query: Query | str, analyzed: AnalyzedQuery | None = None
    ) -> AnalysisReport:
        """Run all passes over ``query`` (source text or AST).

        Raises:
            TBQLSyntaxError: when source text does not parse.
            TBQLSemanticError: when the query is semantically invalid —
                static analysis presumes a semantically valid query.
        """
        ast = parse_query(query) if isinstance(query, str) else query
        text = format_query(ast)
        key = (text, self._store_token())
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if analyzed is None:
            analyzed = self._semantics.analyze(ast)
        context = AnalysisContext(
            query=ast,
            analyzed=analyzed,
            policy=self.policy,
            statistics=store_statistics(self._store),
        )
        raw: list[Diagnostic] = []
        for analysis_pass in self._passes:
            raw.extend(analysis_pass.run(context))
        filtered = [
            effective
            for diagnostic in raw
            if (effective := self.policy.effective(diagnostic)) is not None
        ]
        # Semantic analysis normalizes the AST in place (e.g. bare return
        # items gain their default attribute), so the query can format
        # differently after it.  Cache under both texts: the gate analyzes
        # the same query again post-normalization at registration and
        # preparation time, and those lookups must hit.
        normalized = format_query(ast)
        report = AnalysisReport(diagnostics=sort_diagnostics(filtered), query_text=normalized)
        if len(self._cache) >= self._CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = report
        self._cache[(normalized, key[1])] = report
        return report


def analyze_query(
    query: Query | str,
    store: Any = None,
    policy: AnalysisPolicy | None = None,
) -> AnalysisReport:
    """Module-level convenience wrapper around :class:`StaticAnalyzer`."""
    return StaticAnalyzer(store=store, policy=policy).analyze(query)
