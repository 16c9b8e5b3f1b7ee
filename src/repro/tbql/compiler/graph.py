"""TBQL pattern → graph data query (a ``PathPattern`` builder).

"For a variable-length event path pattern, since it is difficult to perform
graph pattern search using SQL, ThreatRaptor compiles it into a Cypher data
query by leveraging Cypher's path pattern syntax" (Section II-F).  Nothing in
this repo executes Cypher text: the graph backend's data query *is* the
:class:`~repro.storage.graph.pattern.PathPattern` object that
:class:`~repro.storage.graph.planner.CostGuidedPathMatcher` searches for
(:func:`repro.storage.graph.cypher.render_path_pattern` renders one as Cypher
on demand).  :func:`build_path_pattern` builds the windowless, unconstrained
template for a TBQL path pattern — or for a single-hop event pattern, which
is the same thing with both length bounds at 1 — and
:func:`constrain_path_pattern` attaches one execution's time window and
entity-id constraints as data (``EdgePattern.window`` /
``NodePattern.allowed_ids``), where the planner can read their cardinality
and seed the search from the graph's time index.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.auditing.entities import EntityType
from repro.storage.graph.model import Edge, Node
from repro.storage.graph.pattern import EdgePattern, NodePattern
from repro.storage.graph.pattern import PathPattern as GraphPathPattern
from repro.tbql.ast import EntityDeclaration, OperationExpression, Pattern, TimeWindow
from repro.tbql.ast import PathPattern as TBQLPathPattern
from repro.tbql.filters import filter_to_predicate

_LABELS = {
    EntityType.PROCESS: "process",
    EntityType.FILE: "file",
    EntityType.NETWORK: "network",
}


def build_path_pattern(pattern: Pattern) -> GraphPathPattern:
    """The windowless, unconstrained graph path pattern for ``pattern``."""
    min_length = max_length = 1
    if isinstance(pattern, TBQLPathPattern):
        min_length, max_length = pattern.min_length, pattern.max_length
    return GraphPathPattern(
        source=_node_pattern(pattern.subject),
        target=_node_pattern(pattern.obj),
        final_edge=_edge_pattern(pattern.operation),
        min_length=min_length,
        max_length=max_length,
    )


def _node_pattern(declaration: EntityDeclaration) -> NodePattern:
    label = _LABELS[declaration.entity_type]
    if declaration.filter is None:
        return NodePattern(label=label)
    property_predicate = filter_to_predicate(declaration.filter, declaration.entity_type)

    def node_matches(node: Node) -> bool:
        return property_predicate(node.properties)

    return NodePattern(label=label, predicate=node_matches)


def _edge_pattern(operation: OperationExpression) -> EdgePattern:
    """The final hop: one relationship type, or a predicate over a set of them.

    A negated operation is the complement set (``relationship not in
    allowed``), which only a predicate can express.
    """
    operations = operation.operations
    if len(operations) == 1 and not operation.negated:
        return EdgePattern(relationship=operations[0])
    allowed = frozenset(operations)
    negated = operation.negated

    def edge_matches(edge: Edge) -> bool:
        return (edge.relationship in allowed) != negated

    return EdgePattern(predicate=edge_matches)


def constrain_path_pattern(
    template: GraphPathPattern,
    window: TimeWindow | None,
    subject_ids: Iterable[int] | None,
    object_ids: Iterable[int] | None,
) -> GraphPathPattern:
    """``template`` with one execution's window and id constraints attached.

    The endpoint predicates inside the template are shared, never rebuilt; an
    execution with nothing to attach gets the template itself.
    """
    if window is None and subject_ids is None and object_ids is None:
        return template
    source, target, final_edge = template.source, template.target, template.final_edge
    if subject_ids is not None:
        source = replace(source, allowed_ids=frozenset(subject_ids))
    if object_ids is not None:
        target = replace(target, allowed_ids=frozenset(object_ids))
    if window is not None:
        final_edge = replace(final_edge, window=(window.start, window.end))
    return replace(template, source=source, target=target, final_edge=final_edge)
