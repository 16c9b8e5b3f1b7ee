"""The TBQL query execution engine.

The engine compiles each pattern of a TBQL query into a backend data query —
SQL-style select-project-join queries against the relational store for event
patterns, Cypher-style path searches against the graph store for
variable-length path patterns — and schedules their execution with the
pruning-score policy of :mod:`repro.tbql.scheduler`.  Results of earlier,
more selective patterns constrain later data queries by adding entity-id
filters, and the per-pattern match sets are then joined on shared entity
identifiers, filtered by the ``with`` clause's temporal and attribute
relationships, and projected according to the ``return`` clause.

Every execution runs through a :class:`~repro.tbql.prepared.PreparedQuery`:
it owns the semantic analysis, the schedule and the per-pattern data queries,
and is the one place where time windows and entity-id constraints are
attached to them.  :meth:`TBQLExecutionEngine.execute` builds one per call; a
standing query is **prepared** once (:meth:`TBQLExecutionEngine.prepare`) and
re-executed per micro-batch from its compiled templates.

Relational pattern matches become **zero-copy bindings**: each result row
stays one tuple, and the subject/object/event "dicts" of a binding are
:class:`~repro.storage.relational.query.RowFieldView` slices over it, so no
per-row dict splitting happens.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from repro.errors import ExecutionError
from repro.storage.graph.model import Node
from repro.storage.graph.pattern import PathPattern as GraphPathPattern
from repro.storage.graph.planner import CostGuidedPathMatcher
from repro.storage.loader import AuditStore
from repro.storage.relational.query import RowFieldView, SelectQuery
from repro.tbql.analysis.analyzer import StaticAnalyzer
from repro.tbql.analysis.diagnostics import AnalysisPolicy, AnalysisReport
from repro.tbql.ast import EventPattern, Pattern, PathPattern, Query, FilterOperator, TimeWindow
from repro.tbql.parser import parse_query
from repro.tbql.prepared import PreparedQuery
from repro.tbql.result import TBQLResult
from repro.tbql.scheduler import ExecutionScheduler
from repro.tbql.semantics import AnalyzedQuery, SemanticAnalyzer

#: A variable binding: entity identifier -> entity mapping, plus one event
#: mapping per pattern stored under the key ``"@<event id>"``.  Relational
#: matches use zero-copy ``RowFieldView`` mappings; graph matches share one
#: read-only entity mapping per node and build one event dict per path.
Binding = dict[str, Any]


@dataclass
class PatternMatchSet:
    """All matches of one pattern, as partial bindings."""

    pattern: Pattern
    bindings: list[Binding]
    elapsed_seconds: float
    #: EXPLAIN summary of the graph planner's strategy choice, when the
    #: pattern executed on the graph backend (``None`` otherwise).
    graph_plan: dict[str, Any] | None = None


class _ConstraintCache:
    """Per-identifier entity-id sets over the current combined binding set.

    The schedule asks for constraint id-sets after every step; several
    identifiers may be requested against the same binding list.  This cache
    collects all missing identifiers in a *single* pass over the bindings and
    memoizes the sets until the binding list itself is replaced (after a
    join), instead of rebuilding each set from all prior bindings from
    scratch per identifier.
    """

    def __init__(self) -> None:
        self._source: list[Binding] | None = None
        self._sets: dict[str, set[int]] = {}

    def constraints_for(
        self, identifiers: Sequence[str], bindings: list[Binding]
    ) -> dict[str, set[int]]:
        if bindings is not self._source:
            self._source = bindings
            self._sets = {}
        missing = [name for name in identifiers if name not in self._sets]
        if missing:
            collected: dict[str, set[int]] = {name: set() for name in missing}
            for binding in bindings:
                for name in missing:
                    entity = binding.get(name)
                    if entity is not None:
                        collected[name].add(int(entity["id"]))
            self._sets.update(collected)
        return {name: self._sets[name] for name in identifiers if self._sets[name]}


class TBQLExecutionEngine:
    """Executes TBQL queries against an :class:`~repro.storage.loader.AuditStore`.

    Args:
        store: The combined relational + graph audit store to query.
        backend: ``"auto"`` (event patterns on the relational backend, path
            patterns on the graph backend — the paper's design) or ``"graph"``
            (everything on the graph backend; the differential harness and
            the cross-backend parity tests run it against ``"auto"``).
        analysis_mode: ``"enforce"`` (static-analysis errors reject the query
            before execution/preparation — the default), ``"warn"`` (analysis
            runs, findings are reported, nothing gates) or ``"off"`` (no
            static analysis).
        analysis_policy: Per-rule severity/threshold overrides for the static
            analyzer.
    """

    def __init__(
        self,
        store: AuditStore,
        backend: str = "auto",
        analysis_mode: str = "enforce",
        analysis_policy: AnalysisPolicy | None = None,
    ) -> None:
        if backend not in ("auto", "graph"):
            raise ExecutionError(f"unknown backend {backend!r}")
        if analysis_mode not in ("enforce", "warn", "off"):
            raise ExecutionError(f"unknown analysis mode {analysis_mode!r}")
        self._store = store
        self._backend = backend
        self._scheduler = ExecutionScheduler()
        self._analyzer = SemanticAnalyzer()
        self.analysis_mode = analysis_mode
        self._static = StaticAnalyzer(store=store, policy=analysis_policy)

    # -- public API ------------------------------------------------------------

    def analyze(
        self, query: Query | str, analyzed: AnalyzedQuery | None = None
    ) -> AnalysisReport:
        """Statically analyze a query without executing or gating anything.

        Semantic analysis is left to the static analyzer so that its memoized
        reports short-circuit before any semantics re-run.
        """
        ast = parse_query(query) if isinstance(query, str) else query
        return self._static.analyze(ast, analyzed)

    def admission_check(
        self, ast: Query, analyzed: AnalyzedQuery
    ) -> AnalysisReport | None:
        """The static-analysis gate in front of execution and preparation.

        Returns the report (``None`` under ``analysis_mode="off"``).

        Raises:
            TBQLAnalysisError: in ``"enforce"`` mode, when any error-severity
                diagnostic is present.
        """
        if self.analysis_mode == "off":
            return None
        report = self._static.analyze(ast, analyzed)
        if self.analysis_mode == "enforce":
            report.raise_for_errors()
        return report

    def execute(self, query: Query | str, optimize: bool = True) -> TBQLResult:
        """Execute a TBQL query (AST or source text).

        Args:
            query: The query to run.
            optimize: Use pruning-score scheduling with constraint propagation
                when True; plain declaration-order execution without
                propagation when False (the EXP-QUERY-LAT baseline).
        """
        started = time.perf_counter()
        ast = parse_query(query) if isinstance(query, str) else query
        return self._run(PreparedQuery(engine=self, query=ast, optimize=optimize), started)

    def prepare(
        self,
        query: Query | str,
        optimize: bool = True,
        window_hints: tuple[str, ...] = (),
    ) -> PreparedQuery:
        """Parse/analyze/schedule ``query`` once for repeated execution.

        The returned :class:`~repro.tbql.prepared.PreparedQuery` holds the
        semantic analysis, the execution schedule and each pattern's compiled
        data-query template, so standing queries re-executed per micro-batch
        pay only for execution.  ``window_hints`` names patterns that will receive
        per-execution window overrides, so scheduling can account for them.
        """
        ast = parse_query(query) if isinstance(query, str) else query
        return PreparedQuery(
            engine=self, query=ast, optimize=optimize, window_hints=window_hints
        )

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        window_overrides: dict[str, TimeWindow] | None = None,
    ) -> TBQLResult:
        """Execute a :class:`PreparedQuery`, optionally overriding pattern windows.

        ``window_overrides`` maps a pattern's event id to the
        :class:`~repro.tbql.ast.TimeWindow` to use for this execution — the
        streaming monitor narrows the temporal-sink pattern to the current
        watermark this way without re-deriving anything else.
        """
        started = time.perf_counter()
        result = self._run(prepared, started, window_overrides)
        result.statistics["prepared"] = True
        result.statistics["plan_cache"] = prepared.cache_info()
        return result

    # -- shared pipeline -------------------------------------------------------

    def _run(
        self,
        plans: PreparedQuery,
        started: float,
        window_overrides: dict[str, TimeWindow] | None = None,
    ) -> TBQLResult:
        ast = plans.query
        statistics: dict[str, Any] = {
            "schedule": [step.pattern.event_id for step in plans.schedule],
            "pattern_matches": {},
            "pattern_seconds": {},
            "graph_plans": {},
            "optimized": plans.optimize,
        }
        bindings = self._execute_schedule(plans, statistics, window_overrides)
        bindings = self._apply_temporal_relations(ast, bindings)
        bindings = self._apply_attribute_relations(ast, bindings)
        result = self._project(ast, plans.analyzed, bindings)
        result.statistics = statistics
        result.statistics["total_seconds"] = time.perf_counter() - started
        result.statistics["result_rows"] = len(result.rows)
        return result

    # -- schedule execution -------------------------------------------------------

    def _execute_schedule(
        self,
        plans: PreparedQuery,
        statistics: dict[str, Any],
        window_overrides: dict[str, TimeWindow] | None = None,
    ) -> list[Binding]:
        combined: list[Binding] | None = None
        bound_identifiers: set[str] = set()
        constraint_cache = _ConstraintCache()
        for step in plans.schedule:
            constraints = {}
            if plans.optimize and combined is not None:
                constraints = constraint_cache.constraints_for(
                    step.constrained_identifiers, combined
                )
            match_set = self._execute_pattern(
                step.pattern, constraints, plans, window_overrides
            )
            statistics["pattern_matches"][step.pattern.event_id] = len(match_set.bindings)
            statistics["pattern_seconds"][step.pattern.event_id] = match_set.elapsed_seconds
            if match_set.graph_plan is not None:
                statistics["graph_plans"][step.pattern.event_id] = match_set.graph_plan
            if combined is None:
                combined = match_set.bindings
            else:
                shared = tuple(
                    identifier
                    for identifier in dict.fromkeys(step.pattern.entity_identifiers())
                    if identifier in bound_identifiers
                )
                combined = self._join(combined, match_set.bindings, shared)
            bound_identifiers.update(step.pattern.entity_identifiers())
            if not combined:
                # Early termination: a conjunctive query with an empty pattern
                # result can never produce rows.
                return []
        return combined or []

    # -- per-pattern execution -------------------------------------------------------

    def _execute_pattern(
        self,
        pattern: Pattern,
        constraints: dict[str, set[int]],
        plans: PreparedQuery,
        window_overrides: dict[str, TimeWindow] | None = None,
    ) -> PatternMatchSet:
        started = time.perf_counter()
        subject_ids = constraints.get(pattern.subject.identifier)
        object_ids = constraints.get(pattern.obj.identifier)
        window = pattern.window
        if window_overrides is not None:
            window = window_overrides.get(pattern.event_id, window)
        graph_plan: dict[str, Any] | None = None
        if isinstance(pattern, PathPattern) or self._backend == "graph":
            bindings, graph_plan = self._execute_on_graph(
                pattern, plans.graph_query(pattern, window, subject_ids, object_ids)
            )
        else:
            bindings = self._execute_on_relational(
                pattern, plans.relational_query(pattern, window, subject_ids, object_ids)
            )
        return PatternMatchSet(
            pattern=pattern,
            bindings=bindings,
            elapsed_seconds=time.perf_counter() - started,
            graph_plan=graph_plan,
        )

    def _execute_on_relational(
        self, pattern: EventPattern, compiled: SelectQuery
    ) -> list[Binding]:
        result = self._store.relational.execute(compiled)
        if not result.rows:
            return []
        # The compiled projection names outputs "subject.*", "object.*" and
        # "event.*"; group them once, then expose each row through zero-copy
        # field views instead of splitting it into three dicts.
        groups = result.column_groups()
        subject_fields = groups.get("subject", {})
        object_fields = groups.get("object", {})
        event_fields = groups.get("event", {})
        event_id_index = event_fields["id"]
        subject_key = pattern.subject.identifier
        object_key = pattern.obj.identifier
        event_key = f"@{pattern.event_id}"
        bindings: list[Binding] = []
        for row in result.rows:
            bindings.append(
                {
                    subject_key: RowFieldView(row, subject_fields),
                    object_key: RowFieldView(row, object_fields),
                    event_key: RowFieldView(
                        row, event_fields, {"edge_ids": (row[event_id_index],)}
                    ),
                }
            )
        return bindings

    def _execute_on_graph(
        self, pattern: Pattern, graph_pattern: GraphPathPattern
    ) -> tuple[list[Binding], dict[str, Any] | None]:
        """Run one pattern's compiled path search on the graph backend.

        Returns the bindings plus the planner's EXPLAIN summary.
        """
        matcher = CostGuidedPathMatcher(self._store.graph)
        bindings: list[Binding] = []
        # One read-only mapping per distinct endpoint node, shared by every
        # path through it (like the relational ``RowFieldView``).
        entities: dict[int, Mapping[str, Any]] = {}

        def entity(node: Node) -> Mapping[str, Any]:
            view = entities.get(node.node_id)
            if view is None:
                view = MappingProxyType({**node.properties, "id": node.node_id, "type": node.label})
                entities[node.node_id] = view
            return view

        subject_key = pattern.subject.identifier
        object_key = pattern.obj.identifier
        event_key = f"@{pattern.event_id}"
        for path in matcher.match(graph_pattern):
            # A path pattern's event identifier refers to the *final hop* (the
            # declared operation); temporal relations in the with clause are
            # evaluated against that hop's time window.
            final_edge = path.edges[-1]
            event = {
                "id": final_edge.edge_id,
                "srcid": final_edge.source_id,
                "dstid": final_edge.target_id,
                "optype": final_edge.relationship,
                "starttime": final_edge.start_time,
                "endtime": final_edge.end_time,
                "amount": final_edge.get("amount", 0),
                "edge_ids": path.edge_ids(),
            }
            bindings.append(
                {subject_key: entity(path.start), object_key: entity(path.end), event_key: event}
            )
        plan_summary = None
        if matcher.last_plan is not None:
            plan_summary = matcher.last_plan.describe()
        return bindings, plan_summary

    # -- joining -------------------------------------------------------------------

    @staticmethod
    def _join(
        left: list[Binding], right: list[Binding], shared: tuple[str, ...]
    ) -> list[Binding]:
        """Hash-join two binding sets on the ``shared`` entity identifiers.

        ``shared`` comes from the patterns' *declared* entity identifiers, not
        from inspecting the first binding of each side: a binding missing a
        declared identifier must fail loudly rather than silently dropping the
        join key and cross-joining.  Join keys are extracted exactly once per
        side (while building / probing the hash table).
        """
        if not left or not right:
            return []

        def key_of(binding: Binding) -> tuple[Any, ...]:
            try:
                return tuple(binding[name]["id"] for name in shared)
            except KeyError as exc:
                raise ExecutionError(
                    f"binding is missing shared entity identifier {exc.args[0]!r}"
                ) from None

        buckets: dict[tuple[Any, ...], list[Binding]] = {}
        for binding in left:
            buckets.setdefault(key_of(binding), []).append(binding)
        joined: list[Binding] = []
        for binding in right:
            for match in buckets.get(key_of(binding), []) if shared else left:
                joined.append({**match, **binding})
        return joined

    # -- with clause --------------------------------------------------------------------

    @staticmethod
    def _apply_temporal_relations(query: Query, bindings: list[Binding]) -> list[Binding]:
        if not query.temporal_relations or not bindings:
            return bindings
        normalized = [relation.normalized() for relation in query.temporal_relations]

        def satisfies(binding: Binding) -> bool:
            for relation in normalized:
                earlier = binding.get(f"@{relation.left}")
                later = binding.get(f"@{relation.right}")
                if earlier is None or later is None:
                    raise ExecutionError(
                        f"temporal relation references unknown event {relation.left!r} or {relation.right!r}"
                    )
                if not earlier["endtime"] <= later["starttime"]:
                    return False
            return True

        return [binding for binding in bindings if satisfies(binding)]

    @staticmethod
    def _apply_attribute_relations(query: Query, bindings: list[Binding]) -> list[Binding]:
        if not query.attribute_relations or not bindings:
            return bindings

        comparators = {
            FilterOperator.EQ: lambda a, b: a == b,
            FilterOperator.NEQ: lambda a, b: a != b,
            FilterOperator.LT: lambda a, b: a < b,
            FilterOperator.LTE: lambda a, b: a <= b,
            FilterOperator.GT: lambda a, b: a > b,
            FilterOperator.GTE: lambda a, b: a >= b,
        }

        def satisfies(binding: Binding) -> bool:
            for relation in query.attribute_relations:
                left = binding.get(f"@{relation.left_event}")
                right = binding.get(f"@{relation.right_event}")
                if left is None or right is None:
                    raise ExecutionError(
                        "attribute relation references unknown event "
                        f"{relation.left_event!r} or {relation.right_event!r}"
                    )
                comparator = comparators[relation.operator]
                if not comparator(left.get(relation.left_attribute), right.get(relation.right_attribute)):
                    return False
            return True

        return [binding for binding in bindings if satisfies(binding)]

    # -- projection --------------------------------------------------------------------

    @staticmethod
    def _project(query: Query, analyzed: AnalyzedQuery, bindings: list[Binding]) -> TBQLResult:
        columns = tuple(f"{item.identifier}.{item.attribute}" for item in query.return_items)
        empty: dict[str, Any] = {}
        rows: list[tuple[Any, ...]] = []
        for binding in bindings:
            row = []
            for item in query.return_items:
                entity = binding.get(item.identifier, empty)
                row.append(entity.get(item.attribute))
            rows.append(tuple(row))
        if query.distinct:
            seen: set[tuple[Any, ...]] = set()
            unique: list[tuple[Any, ...]] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique

        matched: dict[str, set[int]] = {}
        for binding in bindings:
            for key, value in binding.items():
                if key.startswith("@"):
                    matched.setdefault(key[1:], set()).update(value.get("edge_ids", ()))

        return TBQLResult(
            columns=columns,
            rows=tuple(rows),
            matched_event_ids=matched,
            bindings=bindings,
        )


def execute_query(store: AuditStore, query: Query | str, optimize: bool = True) -> TBQLResult:
    """Module-level convenience wrapper around :class:`TBQLExecutionEngine`."""
    return TBQLExecutionEngine(store).execute(query, optimize=optimize)
