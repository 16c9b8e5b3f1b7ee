"""Compilation of TBQL path patterns into graph data queries.

"For a variable-length event path pattern, since it is difficult to perform
graph pattern search using SQL, ThreatRaptor compiles it into a Cypher data
query by leveraging Cypher's path pattern syntax" (Section II-F).  The
compiler produces a :class:`~repro.storage.graph.pattern.PathPattern` for the
graph backend, together with the Cypher text rendering used by the CLI and
the conciseness experiment.

Single-hop event patterns can also be compiled for the graph backend (used by
the single-backend comparison in EXP-QUERY-LAT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.auditing.entities import EntityType
from repro.auditing.events import event_type_for_object
from repro.storage.graph.cypher import render_path_pattern
from repro.storage.graph.model import Edge, Node
from repro.storage.graph.pattern import EdgePattern, NodePattern
from repro.storage.graph.pattern import PathPattern as GraphPathPattern
from repro.tbql.ast import EventPattern, PathPattern, TimeWindow
from repro.tbql.filters import filter_to_predicate

_LABELS = {
    EntityType.PROCESS: "process",
    EntityType.FILE: "file",
    EntityType.NETWORK: "network",
}


@dataclass(frozen=True)
class CompiledPathPattern:
    """The compiled form of one (path or event) pattern for the graph backend."""

    event_id: str
    graph_pattern: GraphPathPattern
    cypher_text: str


class CypherCompiler:
    """Compiles TBQL patterns into graph path patterns plus Cypher text."""

    def compile_path(self, pattern: PathPattern) -> CompiledPathPattern:
        """Compile a variable-length path pattern."""
        graph_pattern = GraphPathPattern(
            source=self._node_pattern(pattern.subject.entity_type, pattern.subject.filter),
            target=self._node_pattern(pattern.obj.entity_type, pattern.obj.filter),
            final_edge=self._edge_pattern(pattern.operation.operations, pattern.window),
            min_length=pattern.min_length,
            max_length=pattern.max_length,
        )
        return CompiledPathPattern(
            event_id=pattern.event_id,
            graph_pattern=graph_pattern,
            cypher_text=render_path_pattern(graph_pattern),
        )

    def compile_event(self, pattern: EventPattern) -> CompiledPathPattern:
        """Compile a single-hop event pattern for the graph backend."""
        graph_pattern = GraphPathPattern(
            source=self._node_pattern(pattern.subject.entity_type, pattern.subject.filter),
            target=self._node_pattern(pattern.obj.entity_type, pattern.obj.filter),
            final_edge=self._edge_pattern(pattern.operation.operations, pattern.window),
            min_length=1,
            max_length=1,
        )
        return CompiledPathPattern(
            event_id=pattern.event_id,
            graph_pattern=graph_pattern,
            cypher_text=render_path_pattern(graph_pattern),
        )

    # -- pattern pieces --------------------------------------------------------------

    def _node_pattern(self, entity_type: EntityType, filter_expression) -> NodePattern:
        """Only the attribute filter is compiled into the predicate; entity-id
        constraints are attached per execution as ``NodePattern.allowed_ids``
        (:meth:`repro.tbql.prepared.PreparedQuery.graph_query`), where the
        cost-guided planner can read their cardinality."""
        predicate: Callable[[Node], bool] | None = None
        if filter_expression is not None:
            property_predicate = filter_to_predicate(filter_expression, entity_type)

            def node_matches(node: Node) -> bool:
                return property_predicate(node.properties)

            predicate = node_matches
        return NodePattern(label=_LABELS[entity_type], predicate=predicate)

    @staticmethod
    def _edge_pattern(operations: tuple[str, ...], window: TimeWindow | None) -> EdgePattern:
        """The time window is likewise declarative (see ``EdgePattern.window``)
        so the planner can seed the search from the graph's time index."""
        relationship = operations[0] if len(operations) == 1 else None
        predicate: Callable[[Edge], bool] | None = None
        if len(operations) > 1:
            allowed = frozenset(operations)

            def edge_matches(edge: Edge) -> bool:
                return edge.relationship in allowed

            predicate = edge_matches
        return EdgePattern(
            relationship=relationship,
            predicate=predicate,
            window=(window.start, window.end) if window is not None else None,
        )
