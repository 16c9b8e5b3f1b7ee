"""Cost-guided path search over the property graph.

The oracle (the DFS ``PathMatcher`` under ``tests/oracles/``, the engine's
original strategy) always runs a forward DFS from every source-matching node
— correct, but oblivious to how selective each end of the pattern actually
is.  This module adds the planner
the paper implies Neo4j provides ("indexes are created on key attributes to
speed up the search"): before searching, :class:`CostGuidedPathMatcher`
estimates the cardinality of both endpoints from the graph's label, property
and time indexes and picks the cheapest of three strategies:

* **forward** — DFS from the source candidates, as the oracle does, but over
  the time-sorted adjacency arrays so each temporal-order check is a bisect
  instead of a scan;
* **backward** — enumerate candidate *final hops* from the target side (the
  final hop is the only edge the pattern types), then grow the path prefix
  backwards; each prepended hop bisects to edges starting at or before the
  currently earliest hop.  Wins whenever the target side is more selective
  than the source side — the common shape for synthesized TBQL queries whose
  object carries the IOC filter;
* **window-seeded** — when the final edge carries a time window (a standing
  hunt's watermark, or an explicit TBQL window), seed directly from the
  graph's global time index: only edges that *started inside the window* are
  considered as final hops, so the work scales with the window's edge count,
  not with graph size.  Because path edges are temporally non-decreasing, the
  final hop of any match involving a new edge must itself lie in the window —
  this is what makes delta-seeded incremental hunts exact.

For longer variable-length patterns a forward search additionally runs the
backward half first as a **meet-in-the-middle** reachability sweep: a reverse
BFS from the target candidates labels every node with the minimum number of
hops it needs to complete a valid suffix (final typed hop included).  The
forward DFS then prunes any branch whose depth plus that lower bound exceeds
``max_length``, which removes the dead expansions that dominate the oracle's
cost on noisy audit graphs.

All strategies enumerate exactly the set of paths the oracle enumerates (the
property tests assert this); only the order differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.model import Edge, Node, Path
from repro.storage.graph.pattern import NodePattern, PathPattern

#: Forward searches over patterns at least this long run the meet-in-the-middle
#: reachability sweep when the estimated expansion exceeds the sweep's cost.
_REACHABILITY_MIN_LENGTH = 2


@dataclass
class SearchPlan:
    """The strategy chosen for one pattern, with the estimates behind it.

    Exposed through :meth:`CostGuidedPathMatcher.plan` and the engine's
    EXPLAIN-style statistics so tests and benchmarks can assert on routing.
    """

    strategy: str  #: "forward" | "backward" | "window-seeded" | "empty"
    source_candidates: int
    target_candidates: int
    forward_fanout: int = 0
    backward_fanout: int = 0
    window_edges: int | None = None
    uses_reachability: bool = False
    #: Materialized candidate nodes (absent for window-seeded plans, which
    #: never enumerate candidates).
    sources: list[Node] | None = field(default=None, repr=False)
    targets: list[Node] | None = field(default=None, repr=False)

    def describe(self) -> dict[str, Any]:
        """Flat summary for query statistics."""
        summary: dict[str, Any] = {
            "strategy": self.strategy,
            "sources": self.source_candidates,
            "targets": self.target_candidates,
            "meet_in_middle": self.uses_reachability,
        }
        if self.window_edges is not None:
            summary["window_edges"] = self.window_edges
        return summary


class CostGuidedPathMatcher:
    """Enumerates paths matching a :class:`PathPattern` with cost-guided planning.

    Same ``match(pattern)`` contract and path set as the DFS oracle;
    additionally exposes :meth:`plan` and :attr:`last_plan` for EXPLAIN output.
    """

    def __init__(self, graph: GraphDatabase) -> None:
        self._graph = graph
        self.last_plan: SearchPlan | None = None

    # -- planning ------------------------------------------------------------

    def plan(self, pattern: PathPattern) -> SearchPlan:
        """Choose a search strategy for ``pattern`` from index statistics.

        The window-seeded decision uses only O(log) index lookups (label
        counts and a bisect on the time index), never a candidate scan — a
        standing hunt's per-batch planning must not grow with the graph.
        """
        graph = self._graph
        window = pattern.final_edge.window
        source_estimate = self._index_estimate(pattern.source)
        target_estimate = self._index_estimate(pattern.target)
        if window is not None:
            window_edges = graph.count_edges_started_between(
                window[0], window[1], relationship=pattern.final_edge.relationship
            )
            if window_edges <= min(source_estimate, target_estimate):
                return SearchPlan(
                    strategy="window-seeded",
                    source_candidates=source_estimate,
                    target_candidates=target_estimate,
                    window_edges=window_edges,
                )

        sources = self._candidates(pattern.source)
        if not sources:
            return SearchPlan(
                strategy="empty",
                source_candidates=0,
                target_candidates=target_estimate,
                sources=sources,
            )
        forward_fanout = sum(graph.out_degree(node.node_id) for node in sources)

        def needs_reachability() -> bool:
            if pattern.max_length < _REACHABILITY_MIN_LENGTH or forward_fanout == 0:
                return False
            # Estimate the DFS expansion as fanout × branching^(depth-1); when
            # it exceeds one sweep over the edge set, the meet-in-the-middle
            # reachability map pays for itself.  Compared in log space: the
            # parser accepts arbitrarily large hop bounds, and a plain float
            # power overflows long before the comparison would saturate.
            branching = max(1.0, graph.edge_count() / max(1, graph.node_count()))
            log_explosion = math.log(forward_fanout) + (pattern.max_length - 1) * math.log(
                branching
            )
            return log_explosion > math.log(max(1, graph.edge_count()))

        uses_reachability = needs_reachability()
        if forward_fanout <= target_estimate and not uses_reachability:
            # Backward cannot win: enumerating its candidate final hops costs
            # at least one scan of the target bucket, which already exceeds
            # the whole forward expansion.  Skip materializing the targets —
            # a plain forward search never reads them.
            return SearchPlan(
                strategy="forward",
                source_candidates=len(sources),
                target_candidates=target_estimate,
                forward_fanout=forward_fanout,
                sources=sources,
            )

        targets = self._candidates(pattern.target)
        if not targets:
            return SearchPlan(
                strategy="empty",
                source_candidates=len(sources),
                target_candidates=0,
                sources=sources,
                targets=targets,
            )
        backward_fanout = sum(
            graph.in_degree(node.node_id, pattern.final_edge.relationship)
            for node in targets
        )
        strategy = "backward" if backward_fanout < forward_fanout else "forward"
        if strategy == "backward":
            uses_reachability = False
        return SearchPlan(
            strategy=strategy,
            source_candidates=len(sources),
            target_candidates=len(targets),
            forward_fanout=forward_fanout,
            backward_fanout=backward_fanout,
            window_edges=None,
            uses_reachability=uses_reachability,
            sources=sources,
            targets=targets,
        )

    def _index_estimate(self, node_pattern: NodePattern) -> int:
        """Candidate-count upper bound from indexes only (no scan)."""
        graph = self._graph
        estimate = graph.node_count()
        if node_pattern.label is not None:
            estimate = graph.label_count(node_pattern.label)
            for name, value in node_pattern.properties.items():
                indexed = graph.property_index_count(node_pattern.label, name, value)
                if indexed is not None:
                    estimate = min(estimate, indexed)
        if node_pattern.allowed_ids is not None:
            estimate = min(estimate, len(node_pattern.allowed_ids))
        return estimate

    def _candidates(self, node_pattern: NodePattern) -> list[Node]:
        """Materialize the nodes matching one endpoint pattern."""
        graph = self._graph
        if node_pattern.allowed_ids is not None:
            nodes = []
            for node_id in node_pattern.allowed_ids:
                if graph.has_node(node_id):
                    node = graph.node(node_id)
                    if node_pattern.matches(node):
                        nodes.append(node)
            return nodes
        by_value = self._candidates_by_value(node_pattern)
        if by_value is not None:
            return by_value
        found = graph.find_nodes(node_pattern.label, **node_pattern.properties)
        return [node for node in found if node_pattern.matches(node)]

    def _candidates_by_value(self, node_pattern: NodePattern) -> list[Node] | None:
        """Nodes passing a filter over one indexed property, tested per distinct value.

        ``None`` when this does not apply: no label or no filter, exact
        ``properties`` to honour, a filter reading other properties than one
        indexed one, or label nodes outside the index (value ``None`` or
        missing) on which the filter could hold.
        """
        graph = self._graph
        label, expression = node_pattern.label, node_pattern.filter
        if label is None or expression is None or node_pattern.properties:
            return None
        columns = expression.columns()
        if len(columns) != 1:
            return None
        (column,) = columns
        by_value = graph.property_values(label, column)
        if by_value is None:
            return None
        indexed = sum(len(node_ids) for node_ids in by_value.values())
        if indexed < graph.label_count(label) and (
            node_pattern.filter_holds({}) or node_pattern.filter_holds({column: None})
        ):
            return None
        return [
            graph.node(node_id)
            for value, node_ids in by_value.items()
            if node_pattern.filter_holds({column: value})
            for node_id in node_ids
        ]

    # -- matching ------------------------------------------------------------

    def match(self, pattern: PathPattern) -> Iterator[Path]:
        """Yield every path matching ``pattern`` (same set as the oracle)."""
        plan = self.plan(pattern)
        self.last_plan = plan
        if plan.strategy == "empty":
            return
        if plan.strategy == "window-seeded":
            yield from self._window_seeded(pattern)
            return
        if plan.strategy == "backward":
            yield from self._backward(pattern, plan.targets or [], plan.sources or [])
            return
        reach = self._reachability(pattern, plan.targets or []) if plan.uses_reachability else None
        yield from self._forward(pattern, plan.sources or [], reach)

    # -- forward strategy ----------------------------------------------------

    def _forward(
        self,
        pattern: PathPattern,
        sources: list[Node],
        reach: dict[int, int] | None,
    ) -> Iterator[Path]:
        graph = self._graph
        max_length = pattern.max_length
        window = pattern.final_edge.window
        if max_length == 1:
            # Single-hop fast path, mirroring the oracle's ``_single_hop``:
            # read only the typed adjacency bucket (window bounds included —
            # the only hop is the final hop), and allow a self-loop — plain
            # event patterns have SQL semantics, where subject and object may
            # resolve to the same entity.  (Variable-length patterns are
            # simple paths; self-loops stay excluded there.)
            relationship = pattern.final_edge.relationship
            for source in sources:
                for edge in graph.outgoing_edges(
                    source.node_id,
                    relationship,
                    min_start=window[0] if window is not None else None,
                    max_start=window[1] if window is not None else None,
                ):
                    if not pattern.final_edge.matches(edge):
                        continue
                    target = graph.node(edge.target_id)
                    if pattern.target.matches(target):
                        yield Path(nodes=(source, target), edges=(edge,))
            return
        # With temporal order enforced, every edge starts at or before the
        # final hop, so a final-edge window also upper-bounds intermediates.
        window_max = (
            window[1] if window is not None and pattern.enforce_temporal_order else None
        )
        for source in sources:
            if reach is not None:
                remaining = reach.get(source.node_id)
                if remaining is None or remaining > max_length:
                    continue
            stack: list[tuple[Node, tuple[Node, ...], tuple[Edge, ...], frozenset[int]]] = [
                (source, (source,), (), frozenset((source.node_id,)))
            ]
            while stack:
                current, nodes, edges, visited = stack.pop()
                depth = len(edges)
                min_start = (
                    edges[-1].start_time
                    if edges and pattern.enforce_temporal_order
                    else None
                )
                for edge in graph.outgoing_edges(
                    current.node_id, min_start=min_start, max_start=window_max
                ):
                    if edge.target_id in visited:
                        continue
                    next_node = graph.node(edge.target_id)
                    hop_count = depth + 1
                    if (
                        hop_count >= pattern.min_length
                        and pattern.final_edge.matches(edge)
                        and pattern.target.matches(next_node)
                    ):
                        yield Path(nodes=nodes + (next_node,), edges=edges + (edge,))
                    if hop_count < max_length:
                        if pattern.intermediate_edge is not None and not pattern.intermediate_edge.matches(edge):
                            continue
                        if reach is not None:
                            remaining = reach.get(edge.target_id)
                            if remaining is None or hop_count + remaining > max_length:
                                continue
                        stack.append(
                            (
                                next_node,
                                nodes + (next_node,),
                                edges + (edge,),
                                visited | {edge.target_id},
                            )
                        )

    def _reachability(self, pattern: PathPattern, targets: list[Node]) -> dict[int, int]:
        """Minimum hops from each node to a valid pattern suffix.

        Reverse BFS (the backward half of meet-in-the-middle): level 1 holds
        sources of edges that can serve as the final hop into a target
        candidate, level *k* > 1 grows through edges admissible as
        intermediate hops.  Temporal order and the simple-path constraint are
        deliberately ignored — the map is a lower bound used only to prune.
        """
        graph = self._graph
        window = pattern.final_edge.window
        min_start = window[0] if window is not None else None
        max_start = window[1] if window is not None else None
        reach: dict[int, int] = {}
        frontier: set[int] = set()
        for target in targets:
            for edge in graph.incoming_edges(
                target.node_id,
                relationship=pattern.final_edge.relationship,
                min_start=min_start,
                max_start=max_start,
            ):
                if pattern.final_edge.matches(edge) and edge.source_id not in reach:
                    reach[edge.source_id] = 1
                    frontier.add(edge.source_id)
        depth = 1
        while frontier and depth < pattern.max_length:
            depth += 1
            next_frontier: set[int] = set()
            for node_id in frontier:
                for edge in graph.incoming_edges(node_id):
                    if pattern.intermediate_edge is not None and not pattern.intermediate_edge.matches(edge):
                        continue
                    if edge.source_id not in reach:
                        reach[edge.source_id] = depth
                        next_frontier.add(edge.source_id)
            frontier = next_frontier
        return reach

    # -- backward strategies -------------------------------------------------

    def _backward(
        self, pattern: PathPattern, targets: list[Node], sources: list[Node]
    ) -> Iterator[Path]:
        graph = self._graph
        window = pattern.final_edge.window
        min_start = window[0] if window is not None else None
        max_start = window[1] if window is not None else None
        # The plan already materialized the sources: test membership, not the
        # source pattern, on every prefix state.
        source_ids = frozenset(node.node_id for node in sources)

        def is_source(node: Node) -> bool:
            return node.node_id in source_ids

        for target in targets:
            for edge in graph.incoming_edges(
                target.node_id,
                relationship=pattern.final_edge.relationship,
                min_start=min_start,
                max_start=max_start,
            ):
                if pattern.final_edge.matches(edge):
                    yield from self._grow_prefix(pattern, edge, target, is_source)

    def _window_seeded(self, pattern: PathPattern) -> Iterator[Path]:
        graph = self._graph
        window = pattern.final_edge.window
        assert window is not None  # guaranteed by plan()
        for edge in graph.edges_started_between(
            window[0], window[1], relationship=pattern.final_edge.relationship
        ):
            if not pattern.final_edge.matches(edge):
                continue
            target = graph.node(edge.target_id)
            if pattern.target.matches(target):
                # No source candidates here (the plan never scans for them).
                yield from self._grow_prefix(pattern, edge, target, pattern.source.matches)

    def _grow_prefix(
        self,
        pattern: PathPattern,
        final_edge: Edge,
        target: Node,
        is_source: Callable[[Node], bool],
    ) -> Iterator[Path]:
        """Enumerate all path prefixes completing ``final_edge`` into ``target``.

        States grow backwards from the final hop's source node; every
        prepended edge is a non-final hop, so it must satisfy the intermediate
        constraint and start at or before the currently earliest hop (a bisect
        on the time-sorted incoming adjacency).  ``is_source`` decides whether
        a state's first node can start a path.
        """
        graph = self._graph
        if final_edge.source_id == final_edge.target_id:
            # A self-loop can only be the degenerate single-hop match that
            # plain event patterns (max_length == 1) allow — see ``_forward``.
            if pattern.max_length == 1 and is_source(target):
                yield Path(nodes=(target, target), edges=(final_edge,))
            return
        first = graph.node(final_edge.source_id)
        stack: list[tuple[Node, tuple[Node, ...], tuple[Edge, ...], frozenset[int]]] = [
            (first, (first, target), (final_edge,), frozenset((first.node_id, target.node_id)))
        ]
        while stack:
            current, nodes, edges, visited = stack.pop()
            length = len(edges)
            if length >= pattern.min_length and is_source(current):
                yield Path(nodes=nodes, edges=edges)
            if length >= pattern.max_length:
                continue
            max_start = edges[0].start_time if pattern.enforce_temporal_order else None
            for edge in graph.incoming_edges(current.node_id, max_start=max_start):
                if edge.source_id in visited:
                    continue
                if pattern.intermediate_edge is not None and not pattern.intermediate_edge.matches(edge):
                    continue
                previous = graph.node(edge.source_id)
                stack.append(
                    (
                        previous,
                        (previous,) + nodes,
                        (edge,) + edges,
                        visited | {edge.source_id},
                    )
                )


__all__ = ["CostGuidedPathMatcher", "SearchPlan"]
