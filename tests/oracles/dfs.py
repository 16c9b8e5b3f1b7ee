"""Always-forward DFS path matcher: the graph engine's original strategy.

Path semantics are the ones :mod:`repro.storage.graph.pattern` documents
(simple paths, final hop carries the declared operation, temporally
non-decreasing hops).
"""

from __future__ import annotations

from typing import Iterator

from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.model import Edge, Node, Path
from repro.storage.graph.pattern import PathPattern


class PathMatcher:
    """Enumerates paths in a :class:`GraphDatabase` matching a :class:`PathPattern`.

    The search is a depth-first enumeration from every source-matching node,
    bounded by ``max_length``, pruned by the simple-path constraint and the
    temporal-order constraint.  Candidate source nodes are obtained through the
    property index when the source pattern constrains an indexed property.

    This always-forward DFS is the **reference oracle**: the engine uses
    :class:`~repro.storage.graph.planner.CostGuidedPathMatcher`, and the
    property tests and the data-query differential test compare it against
    this implementation.
    """

    def __init__(self, graph: GraphDatabase) -> None:
        self._graph = graph

    def match(self, pattern: PathPattern) -> Iterator[Path]:
        """Yield every path matching ``pattern``."""
        for source in self._candidate_sources(pattern):
            yield from self._search_from(source, pattern)

    def match_single_edges(self, pattern: PathPattern) -> Iterator[Path]:
        """Fast path for 1-hop patterns: iterate matching edges directly.

        Delegates to the same ``_single_hop`` used by the general search so
        the two code paths cannot drift apart.
        """
        for source in self._candidate_sources(pattern):
            if pattern.source.matches(source):
                yield from self._single_hop(source, pattern)

    # -- internals -----------------------------------------------------------

    def _candidate_sources(self, pattern: PathPattern) -> Iterator[Node]:
        source = pattern.source
        if source.label is not None or source.properties:
            yield from self._graph.find_nodes(source.label, **source.properties)
            return
        # Unconstrained source: every node (rare — synthesized queries always
        # constrain the subject process).  Iterate the label index rather than
        # a hard-coded label whitelist so nodes of any label participate.
        for label in self._graph.labels():
            yield from self._graph.nodes_with_label(label)

    def _search_from(self, source: Node, pattern: PathPattern) -> Iterator[Path]:
        if not pattern.source.matches(source):
            return
        if pattern.max_length == 1:
            yield from self._single_hop(source, pattern)
            return
        stack: list[tuple[Node, list[Node], list[Edge], set[int]]] = [
            (source, [source], [], {source.node_id})
        ]
        while stack:
            current, nodes, edges, visited = stack.pop()
            depth = len(edges)
            last_start = edges[-1].start_time if edges else None
            for edge in self._graph.outgoing_edges(current.node_id):
                if (
                    pattern.enforce_temporal_order
                    and last_start is not None
                    and edge.start_time < last_start
                ):
                    continue
                next_node = self._graph.node(edge.target_id)
                if next_node.node_id in visited:
                    continue
                hop_count = depth + 1
                # Can this edge be the final hop?
                if (
                    hop_count >= pattern.min_length
                    and pattern.final_edge.matches(edge)
                    and pattern.target.matches(next_node)
                ):
                    yield Path(
                        nodes=tuple(nodes + [next_node]),
                        edges=tuple(edges + [edge]),
                    )
                # Can the search continue through this edge?
                if hop_count < pattern.max_length:
                    if pattern.intermediate_edge is not None and not pattern.intermediate_edge.matches(edge):
                        continue
                    stack.append(
                        (
                            next_node,
                            nodes + [next_node],
                            edges + [edge],
                            visited | {next_node.node_id},
                        )
                    )

    def _single_hop(self, source: Node, pattern: PathPattern) -> Iterator[Path]:
        relationship = pattern.final_edge.relationship
        for edge in self._graph.outgoing_edges(source.node_id, relationship):
            if not pattern.final_edge.matches(edge):
                continue
            target = self._graph.node(edge.target_id)
            if pattern.target.matches(target):
                yield Path(nodes=(source, target), edges=(edge,))
