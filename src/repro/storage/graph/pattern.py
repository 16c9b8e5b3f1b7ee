"""Graph path patterns: single-edge and variable-length.

ThreatRaptor compiles a TBQL variable-length event path pattern (e.g.
``proc p ~>(2~4)[read] file f``) into a Cypher data query "by leveraging
Cypher's path pattern syntax".  This module declares what the Cypher
substitute matches: node constraints for the two endpoints, an optional
relationship constraint for the final hop, and minimum/maximum path lengths.
:class:`~repro.storage.graph.planner.CostGuidedPathMatcher` enumerates all
simple paths that satisfy a pattern.

Path semantics follow the TBQL description:

* intermediate hops may use any relationship type (they represent the
  intermediate processes "forked to chain system events" that the OSCTI text
  omitted), while the **final hop** must match the declared operation;
* paths are **simple** (no repeated node), which is also Cypher's default for
  variable-length relationship patterns over distinct edges and prevents
  explosion on cyclic audit graphs;
* edges along a path must be **temporally non-decreasing** (each hop starts at
  or after the previous hop's start), reflecting causal event chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import QueryError
from repro.storage.graph.model import Edge, Node
from repro.storage.relational.expression import Expression

EdgePredicate = Callable[[Edge], bool]


@dataclass
class NodePattern:
    """Constraints on one endpoint of a path pattern.

    ``filter`` is the entity's attribute filter as a relational
    :class:`~repro.storage.relational.expression.Expression` over the node's
    properties; a node lacking an attribute the filter reads does not match.
    ``allowed_ids`` is the scheduler's entity-id constraint (ids bound by
    earlier, more selective patterns).  Both are data rather than opaque
    callables, so the cost-guided planner can enumerate candidates from
    ``allowed_ids`` (its size is an exact cardinality) and evaluate a filter
    over one indexed property once per distinct indexed value.
    """

    label: str | None = None
    properties: dict[str, Any] = field(default_factory=dict)
    filter: Expression | None = None
    allowed_ids: frozenset[int] | None = None

    def matches(self, node: Node) -> bool:
        if self.allowed_ids is not None and node.node_id not in self.allowed_ids:
            return False
        if self.label is not None and node.label != self.label:
            return False
        for key, value in self.properties.items():
            if node.properties.get(key) != value:
                return False
        return self.filter_holds(node.properties)

    def filter_holds(self, properties: Mapping[str, Any]) -> bool:
        """Whether ``filter`` holds on a property mapping (true without one)."""
        if self.filter is None:
            return True
        try:
            return bool(self.filter.evaluate(properties))
        except QueryError:
            # ``Column.evaluate`` on a missing attribute, the only error an
            # evaluation raises: no match.  Anything else propagates.
            return False


@dataclass
class EdgePattern:
    """Constraints on one edge (the final hop of a path pattern).

    ``window`` bounds the edge's start time (inclusive).  Like
    ``NodePattern.allowed_ids`` it is declarative so the planner can seed the
    search from the graph's time index instead of filtering after the fact —
    this is what makes watermark-windowed standing hunts incremental.
    """

    relationship: str | None = None
    predicate: EdgePredicate | None = None
    window: tuple[int, int] | None = None

    def matches(self, edge: Edge) -> bool:
        if self.relationship is not None and edge.relationship != self.relationship:
            return False
        if self.window is not None:
            start = edge.start_time
            if start < self.window[0] or start > self.window[1]:
                return False
        if self.predicate is not None and not self.predicate(edge):
            return False
        return True


@dataclass
class PathPattern:
    """A variable-length path pattern between two node patterns.

    Attributes:
        source: Constraints on the start node (the subject process).
        target: Constraints on the end node (the object entity).
        final_edge: Constraints on the last hop's edge (operation type etc.).
        min_length: Minimum number of hops (>= 1).
        max_length: Maximum number of hops.
        intermediate_edge: Optional constraints applied to non-final hops.
        enforce_temporal_order: Require non-decreasing start times along the
            path (on by default; matches causal chains in audit data).
    """

    source: NodePattern = field(default_factory=NodePattern)
    target: NodePattern = field(default_factory=NodePattern)
    final_edge: EdgePattern = field(default_factory=EdgePattern)
    min_length: int = 1
    max_length: int = 1
    intermediate_edge: EdgePattern | None = None
    enforce_temporal_order: bool = True

    def __post_init__(self) -> None:
        if self.min_length < 1:
            raise ValueError("min_length must be at least 1")
        if self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")
