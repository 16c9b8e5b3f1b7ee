"""Prepared TBQL queries: parse/analyze/schedule/compile once, execute many.

Every execution runs through a :class:`PreparedQuery`: the engine's ad-hoc
``execute`` builds one per call, while a standing query in the streaming
monitor — re-executed against every micro-batch — is prepared once, because
re-running semantic analysis, pruning-score scheduling and per-pattern
compilation per batch dominates once the watermark window keeps the data
volume per evaluation small.

:class:`PreparedQuery` front-loads all of that, and is the only place where
time windows and entity-id constraints are attached to a data query:

* the AST is analyzed and scheduled **once** at prepare time;
* each event pattern's relational data query is compiled **once** into a
  windowless, unconstrained *template*; per execution the template is cloned
  (cheap shallow copies of the clause lists) and only the execution-specific
  parts — the time window and the scheduler's entity-id constraint lists —
  are attached;
* compiled plans are cached keyed by ``(pattern, constraint shape)`` — the
  pattern's event id plus which of {window, subject ids, object ids} are
  present — with hit/miss counters exposed through :meth:`cache_info`;
* **graph plans share the same cache discipline**: a pattern routed to the
  graph backend (a TBQL path pattern, or any pattern under
  ``backend="graph"``) compiles once into a windowless, unconstrained
  :class:`~repro.storage.graph.pattern.PathPattern` template; per execution
  the time window and entity-id constraints are attached declaratively
  (``EdgePattern.window`` / ``NodePattern.allowed_ids``), which is also what
  lets the cost-guided planner seed watermark-windowed standing hunts from
  the graph's time index.

Time windows are supplied per execution through ``window_overrides`` (see
:meth:`TBQLExecutionEngine.execute_prepared`), which is how the monitor
narrows the temporal-sink pattern to ``[watermark, ∞)`` without rebuilding
the query AST each batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.storage.graph.pattern import PathPattern as GraphPathPattern
from repro.storage.relational.expression import Between, Column, InList
from repro.storage.relational.query import SelectQuery
from repro.tbql.ast import EventPattern, Pattern, Query, TimeWindow
from repro.tbql.ast import PathPattern as TBQLPathPattern
from repro.tbql.compiler.cypher_compiler import CypherCompiler
from repro.tbql.compiler.sql_compiler import (
    EVENT_ALIAS,
    OBJECT_ALIAS,
    SUBJECT_ALIAS,
    SQLCompiler,
)
from repro.tbql.result import TBQLResult
from repro.tbql.scheduler import ScheduledPattern
from repro.tbql.semantics import AnalyzedQuery

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.tbql.analysis.diagnostics import AnalysisReport
    from repro.tbql.executor import TBQLExecutionEngine

#: Cache key: (event id, has window, has subject ids, has object ids).
PlanKey = tuple[str, bool, bool, bool]


def pattern_constraint_shape(
    pattern: Pattern,
    window: "TimeWindow | None" = None,
    subject_ids: "Iterable[int] | None" = None,
    object_ids: "Iterable[int] | None" = None,
) -> PlanKey:
    """The ``(pattern, constraint shape)`` plan-cache key for one execution shape.

    The shape is the pattern's event id plus which of {window, subject ids,
    object ids} are present.  Execution passes its per-batch constraints;
    corpus-level query canonicalization (:mod:`repro.tbql.canonical`) reuses
    the same key with the pattern's own declared window and no entity-id
    constraints.
    """
    return (
        pattern.event_id,
        window is not None,
        subject_ids is not None,
        object_ids is not None,
    )


#: Placeholder window used only for *scheduling* hinted patterns (see
#: ``window_hints``): its bounds never filter anything, it merely makes the
#: pruning score count the window constraint the execution will carry.
_SCHEDULING_WINDOW = TimeWindow(start=0, end=2**63 - 1)

#: The pattern compilers are stateless; every prepared query shares them.
_SQL = SQLCompiler()
_CYPHER = CypherCompiler()


def _clone_query(query: SelectQuery) -> SelectQuery:
    """A shallow per-clause copy safe to extend without touching the template.

    Expressions are immutable, so copying the clause containers is enough:
    ``add_filter`` on the clone builds a new ``And`` instead of mutating the
    cached one.
    """
    return SelectQuery(
        tables=list(query.tables),
        filters=dict(query.filters),
        joins=list(query.joins),
        cross_filters=list(query.cross_filters),
        projection=list(query.projection),
        distinct=query.distinct,
        order_by=list(query.order_by),
        limit=query.limit,
    )


@dataclass
class _CachedPlan:
    """One cached per-pattern plan shape."""

    key: PlanKey
    template: SelectQuery
    hits: int = 0


@dataclass
class _CachedGraphPlan:
    """One cached per-pattern graph plan shape."""

    key: PlanKey
    template: GraphPathPattern
    hits: int = 0


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
    _templates: dict[str, SelectQuery] = field(init=False, default_factory=dict)
    _plans: dict[PlanKey, _CachedPlan] = field(init=False, default_factory=dict)
    _graph_templates: dict[str, GraphPathPattern] = field(init=False, default_factory=dict)
    _graph_plans: dict[PlanKey, _CachedGraphPlan] = field(init=False, default_factory=dict)
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

    # -- per-pattern plan cache ----------------------------------------------

    def relational_query(
        self,
        pattern: EventPattern,
        window: TimeWindow | None,
        subject_ids: Iterable[int] | None,
        object_ids: Iterable[int] | None,
    ) -> SelectQuery:
        """The relational data query for ``pattern`` under one execution's shape.

        The windowless, unconstrained compiled form is cached per pattern;
        only the execution-specific window bounds and entity-id constraint
        lists are attached to a cheap clone.
        """
        key = pattern_constraint_shape(pattern, window, subject_ids, object_ids)
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            template = self._templates.get(pattern.event_id)
            if template is None:
                # Compile without the pattern's own window: the window is a
                # per-execution parameter (overridable), attached below.
                windowless = (
                    replace(pattern, window=None) if pattern.window is not None else pattern
                )
                template = _SQL.compile(windowless).query
                self._templates[pattern.event_id] = template
            plan = _CachedPlan(key=key, template=template)
            self._plans[key] = plan
        else:
            plan.hits += 1

        compiled = _clone_query(plan.template)
        if window is not None:
            compiled.add_filter(
                EVENT_ALIAS, Between(Column("starttime"), window.start, window.end)
            )
        # Entity-id constraints go on the entity alias and on the event table's
        # foreign-key column, so the relational planner can use the
        # events.srcid / events.dstid indexes directly.
        if subject_ids is not None:
            ids = tuple(sorted(set(subject_ids)))
            compiled.add_filter(SUBJECT_ALIAS, InList(Column("id"), ids))
            compiled.add_filter(EVENT_ALIAS, InList(Column("srcid"), ids))
        if object_ids is not None:
            ids = tuple(sorted(set(object_ids)))
            compiled.add_filter(OBJECT_ALIAS, InList(Column("id"), ids))
            compiled.add_filter(EVENT_ALIAS, InList(Column("dstid"), ids))
        return compiled

    def graph_query(
        self,
        pattern: Pattern,
        window: TimeWindow | None,
        subject_ids: Iterable[int] | None,
        object_ids: Iterable[int] | None,
    ) -> GraphPathPattern:
        """The graph data query for ``pattern`` under one execution's shape.

        Mirrors :meth:`relational_query`: the windowless, unconstrained
        compiled path pattern is cached per pattern, and the execution's time
        window and entity-id constraints are attached declaratively via
        ``dataclasses.replace`` — the predicates (entity attribute filters)
        inside the cached template are shared, never recompiled.
        """
        key = pattern_constraint_shape(pattern, window, subject_ids, object_ids)
        plan = self._graph_plans.get(key)
        if plan is None:
            self._misses += 1
            template = self._graph_templates.get(pattern.event_id)
            if template is None:
                windowless = (
                    replace(pattern, window=None) if pattern.window is not None else pattern
                )
                if isinstance(windowless, TBQLPathPattern):
                    template = _CYPHER.compile_path(windowless).graph_pattern
                else:
                    template = _CYPHER.compile_event(windowless).graph_pattern
                self._graph_templates[pattern.event_id] = template
            plan = _CachedGraphPlan(key=key, template=template)
            self._graph_plans[key] = plan
        else:
            plan.hits += 1

        template = plan.template
        source = template.source
        target = template.target
        final_edge = template.final_edge
        if subject_ids is not None:
            source = replace(source, allowed_ids=frozenset(subject_ids))
        if object_ids is not None:
            target = replace(target, allowed_ids=frozenset(object_ids))
        if window is not None:
            final_edge = replace(final_edge, window=(window.start, window.end))
        if source is template.source and target is template.target and final_edge is template.final_edge:
            return template
        return replace(template, source=source, target=target, final_edge=final_edge)

    def cache_info(self) -> dict[str, int]:
        """Plan-cache counters: distinct shapes, template count, hits, misses."""
        return {
            "shapes": len(self._plans) + len(self._graph_plans),
            "templates": len(self._templates) + len(self._graph_templates),
            "hits": (
                sum(plan.hits for plan in self._plans.values())
                + sum(plan.hits for plan in self._graph_plans.values())
            ),
            "misses": self._misses,
        }


__all__ = [
    "PlanKey",
    "PreparedQuery",
    "pattern_constraint_shape",
]
