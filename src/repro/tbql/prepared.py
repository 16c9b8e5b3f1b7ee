"""Prepared TBQL queries: parse/analyze/schedule once, compile each pattern once.

Every execution runs through a :class:`PreparedQuery`: the engine's ad-hoc
``execute`` builds one per call, while a standing query in the streaming
monitor — re-executed against every micro-batch — is prepared once, because
re-running semantic analysis, pruning-score scheduling and per-pattern
compilation per batch dominates once the watermark window keeps the data
volume per evaluation small.

:class:`PreparedQuery` owns that derivation and is the one place a pattern
becomes a data query:

* the AST is analyzed, lint-gated and scheduled **once**, at construction;
* each pattern is compiled **at most once**, on first execution, into its
  windowless, unconstrained *template* (:mod:`repro.tbql.compiler`) — lazily,
  because early termination means the later patterns of an ad-hoc hunt often
  never run.  One dict holds the templates: a pattern executes on exactly one
  backend per engine, so its event id is the whole key;
* per execution :meth:`PreparedQuery.relational_query` /
  :meth:`PreparedQuery.graph_query` attach the execution-specific parts — the
  time window and the scheduler's entity-id constraints — to the template.
  :meth:`cache_info` counts how often a template was reused (``hits``) or had
  to be compiled (``misses``).

Time windows are supplied per execution through ``window_overrides`` (see
:meth:`TBQLExecutionEngine.execute_prepared`), which is how the monitor
narrows the temporal-sink pattern to ``[watermark, ∞)`` without rebuilding
the query AST each batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

from repro.storage.graph.pattern import PathPattern as GraphPathPattern
from repro.storage.relational.query import SelectQuery
from repro.tbql.ast import EventPattern, Pattern, Query, TimeWindow
from repro.tbql.compiler import (
    build_path_pattern,
    compile_select,
    constrain_path_pattern,
    constrain_select,
)
from repro.tbql.result import TBQLResult
from repro.tbql.scheduler import ScheduledPattern
from repro.tbql.semantics import AnalyzedQuery

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.tbql.analysis.diagnostics import AnalysisReport
    from repro.tbql.executor import TBQLExecutionEngine

_T = TypeVar("_T", SelectQuery, GraphPathPattern)

#: Placeholder window used only for *scheduling* hinted patterns (see
#: ``window_hints``): its bounds never filter anything, it merely makes the
#: pruning score count the window constraint the execution will carry.
_SCHEDULING_WINDOW = TimeWindow(start=0, end=2**63 - 1)


@dataclass
class PreparedQuery:
    """A TBQL query bound to an engine with its derivation work front-loaded.

    Build via :meth:`TBQLExecutionEngine.prepare`; execute with
    :meth:`execute` (or the engine's ``execute_prepared``).
    """

    engine: "TBQLExecutionEngine"
    query: Query
    optimize: bool = True
    #: Event ids of patterns that will receive a window override at execution
    #: time (e.g. the streaming monitor's temporal sink).  Scheduling treats
    #: them as windowed so their pruning score — and therefore the execution
    #: order — matches what per-batch re-scheduling of the windowed query
    #: would have produced; execution itself still uses the original patterns.
    window_hints: tuple[str, ...] = ()
    analyzed: AnalyzedQuery = field(init=False)
    #: Static-analysis report from the engine's admission gate (``None`` when
    #: the engine runs with ``analysis_mode="off"``).
    analysis: "AnalysisReport | None" = field(init=False, default=None)
    schedule: list[ScheduledPattern] = field(init=False)
    #: Compiled templates by pattern event id, filled on first execution.
    _templates: dict[str, Any] = field(init=False, default_factory=dict)
    _hits: int = field(init=False, default=0)
    _misses: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.analyzed = self.engine._analyzer.analyze(self.query)
        self.analysis = self.engine.admission_check(self.query, self.analyzed)
        scheduler = self.engine._scheduler
        scheduling_query = self._scheduling_query()
        schedule = (
            scheduler.schedule(scheduling_query)
            if self.optimize
            else scheduler.schedule_unoptimized(scheduling_query)
        )
        if scheduling_query is not self.query:
            # Map hinted (placeholder-windowed) patterns back to the originals
            # so execution never sees the placeholder.
            originals = {pattern.event_id: pattern for pattern in self.query.patterns}
            schedule = [
                replace(step, pattern=originals[step.pattern.event_id])
                for step in schedule
            ]
        self.schedule = schedule

    def _scheduling_query(self) -> Query:
        """The query whose shape drives scheduling (hinted windows applied)."""
        hinted = set(self.window_hints)
        if not hinted:
            return self.query
        patterns: list[Pattern] = [
            replace(pattern, window=_SCHEDULING_WINDOW)
            if pattern.event_id in hinted and pattern.window is None
            else pattern
            for pattern in self.query.patterns
        ]
        if all(new is old for new, old in zip(patterns, self.query.patterns)):
            return self.query
        return replace(self.query, patterns=patterns)

    # -- execution -----------------------------------------------------------

    def execute(
        self, window_overrides: dict[str, TimeWindow] | None = None
    ) -> TBQLResult:
        """Execute the prepared query.

        Args:
            window_overrides: Per-pattern time windows for this execution,
                keyed by event id (e.g. the monitor's watermark window on the
                temporal-sink pattern).
        """
        return self.engine.execute_prepared(self, window_overrides=window_overrides)

    # -- per-pattern data queries ----------------------------------------------

    def _template(self, pattern: Pattern, compile_pattern: Callable[[Any], _T]) -> _T:
        """``pattern``'s compiled template: compiled on first use, then reused."""
        template: _T | None = self._templates.get(pattern.event_id)
        if template is None:
            self._misses += 1
            template = self._templates[pattern.event_id] = compile_pattern(pattern)
        else:
            self._hits += 1
        return template

    def relational_query(
        self,
        pattern: EventPattern,
        window: TimeWindow | None,
        subject_ids: Iterable[int] | None,
        object_ids: Iterable[int] | None,
    ) -> SelectQuery:
        """The relational data query for ``pattern`` under one execution's shape."""
        return constrain_select(
            self._template(pattern, compile_select), window, subject_ids, object_ids
        )

    def graph_query(
        self,
        pattern: Pattern,
        window: TimeWindow | None,
        subject_ids: Iterable[int] | None,
        object_ids: Iterable[int] | None,
    ) -> GraphPathPattern:
        """The graph data query for ``pattern`` under one execution's shape."""
        return constrain_path_pattern(
            self._template(pattern, build_path_pattern), window, subject_ids, object_ids
        )

    def cache_info(self) -> dict[str, int]:
        """Template counters: compiled templates, reuses (hits), compiles (misses)."""
        return {"templates": len(self._templates), "hits": self._hits, "misses": self._misses}


__all__ = ["PreparedQuery"]
