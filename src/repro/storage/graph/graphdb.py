"""The property-graph store (Neo4j substitute) for audit data.

:class:`GraphDatabase` stores system entities as nodes and system events as
edges, with three kinds of indexes that mirror what the paper relies on in
Neo4j ("indexes are created on key attributes to speed up the search"):

* a **label index** — node ids per label;
* **property indexes** — node ids per (label, property, value), created on the
  same key attributes the relational store indexes (name, exename, dstip);
* **adjacency indexes** — outgoing and incoming edge ids per node, grouped by
  relationship type and kept **sorted by edge start time**, which drive path
  pattern search.

Time-sorted adjacency is what makes temporally ordered path search cheap: a
forward expansion that must not go back in time bisects to the first edge
starting at or after the previous hop, and a backward expansion bisects to cut
everything after the next hop's start.  A global time index over all edges
supports window-seeded search (enumerate only the edges that started inside a
watermark window) and powers the streaming monitor's delta-seeded incremental
hunts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Any, Iterable, Iterator

from repro.auditing.entities import SystemEntity
from repro.auditing.events import SystemEvent
from repro.auditing.trace import AuditTrace
from repro.errors import QueryError
from repro.storage.graph.model import Edge, Node

#: Node properties indexed by default, per label.
DEFAULT_PROPERTY_INDEXES: dict[str, tuple[str, ...]] = {
    "file": ("name",),
    "process": ("exename",),
    "network": ("dstip",),
}


class _TimeSortedEdges:
    """Edge ids kept sorted by start time, with O(1) in-order append.

    Audit streams arrive (nearly) in time order, so the common case is an
    append at the tail; out-of-order inserts fall back to ``insort``.  The two
    parallel arrays allow bisecting on start times while returning edge ids.
    """

    __slots__ = ("starts", "edge_ids")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.edge_ids: list[int] = []

    def __len__(self) -> int:
        return len(self.edge_ids)

    def add(self, start: int, edge_id: int) -> None:
        if not self.starts or start >= self.starts[-1]:
            self.starts.append(start)
            self.edge_ids.append(edge_id)
            return
        at = bisect_right(self.starts, start)
        self.starts.insert(at, start)
        self.edge_ids.insert(at, edge_id)

    def bounds(self, min_start: int | None, max_start: int | None) -> tuple[int, int]:
        lo = 0 if min_start is None else bisect_left(self.starts, min_start)
        hi = len(self.starts) if max_start is None else bisect_right(self.starts, max_start)
        return lo, hi

    def ids_between(self, min_start: int | None, max_start: int | None) -> list[int]:
        # Always a fresh slice, never the live internal list: a caller may
        # hold the result (or a generator over it) across an append, and an
        # out-of-order insert would shift elements under the iteration.
        lo, hi = self.bounds(min_start, max_start)
        return self.edge_ids[lo:hi]

    def count_between(self, min_start: int | None, max_start: int | None) -> int:
        lo, hi = self.bounds(min_start, max_start)
        return max(0, hi - lo)


class GraphDatabase:
    """In-memory property graph with time-sorted adjacency and property indexes."""

    def __init__(self) -> None:
        self._nodes: dict[int, Node] = {}
        self._edges: dict[int, Edge] = {}
        self._label_index: dict[str, set[int]] = defaultdict(set)
        self._property_index: dict[tuple[str, str, Any], set[int]] = defaultdict(set)
        self._outgoing: dict[int, dict[str, _TimeSortedEdges]] = {}
        self._incoming: dict[int, dict[str, _TimeSortedEdges]] = {}
        #: Global time index over every edge, total and per relationship type.
        self._edges_by_time = _TimeSortedEdges()
        self._edges_by_time_by_relationship: dict[str, _TimeSortedEdges] = {}

    def clear(self) -> None:
        """Drop every node, edge and index."""
        self._nodes.clear()
        self._edges.clear()
        self._label_index.clear()
        self._property_index.clear()
        self._outgoing.clear()
        self._incoming.clear()
        self._edges_by_time = _TimeSortedEdges()
        self._edges_by_time_by_relationship.clear()

    # -- loading -----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Insert one node and maintain label/property indexes.

        Raises:
            QueryError: if a node with the same id already exists.
        """
        if node.node_id in self._nodes:
            raise QueryError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._label_index[node.label].add(node.node_id)
        for property_name in DEFAULT_PROPERTY_INDEXES.get(node.label, ()):
            value = node.properties.get(property_name)
            if value is not None:
                self._property_index[(node.label, property_name, value)].add(node.node_id)

    def add_edge(self, edge: Edge) -> None:
        """Insert one edge and maintain adjacency and time indexes.

        Raises:
            QueryError: if either endpoint is unknown or the edge id is a
                duplicate.
        """
        if edge.edge_id in self._edges:
            raise QueryError(f"duplicate edge id {edge.edge_id}")
        if edge.source_id not in self._nodes:
            raise QueryError(f"edge {edge.edge_id}: unknown source node {edge.source_id}")
        if edge.target_id not in self._nodes:
            raise QueryError(f"edge {edge.edge_id}: unknown target node {edge.target_id}")
        self._edges[edge.edge_id] = edge
        start = edge.start_time
        self._adjacency_bucket(self._outgoing, edge.source_id, edge.relationship).add(
            start, edge.edge_id
        )
        self._adjacency_bucket(self._incoming, edge.target_id, edge.relationship).add(
            start, edge.edge_id
        )
        self._edges_by_time.add(start, edge.edge_id)
        by_relationship = self._edges_by_time_by_relationship.get(edge.relationship)
        if by_relationship is None:
            by_relationship = self._edges_by_time_by_relationship.setdefault(
                edge.relationship, _TimeSortedEdges()
            )
        by_relationship.add(start, edge.edge_id)

    @staticmethod
    def _adjacency_bucket(
        adjacency: dict[int, dict[str, _TimeSortedEdges]], node_id: int, relationship: str
    ) -> _TimeSortedEdges:
        by_type = adjacency.get(node_id)
        if by_type is None:
            by_type = adjacency.setdefault(node_id, {})
        bucket = by_type.get(relationship)
        if bucket is None:
            bucket = by_type.setdefault(relationship, _TimeSortedEdges())
        return bucket

    def load_entities(self, entities: Iterable[SystemEntity]) -> int:
        """Load system entities as nodes; returns the count loaded."""
        count = 0
        for entity in entities:
            self.add_node(
                Node(
                    node_id=entity.entity_id,
                    label=entity.entity_type.value,
                    properties=dict(entity.attributes(), host=entity.host),
                )
            )
            count += 1
        return count

    def load_events(self, events: Iterable[SystemEvent]) -> int:
        """Load system events as edges; returns the count loaded."""
        count = 0
        for event in events:
            self.add_edge(
                Edge(
                    edge_id=event.event_id,
                    source_id=event.subject_id,
                    target_id=event.object_id,
                    relationship=event.operation.value,
                    properties={
                        "starttime": event.start_time,
                        "endtime": event.end_time,
                        "amount": event.amount,
                        "eventtype": event.event_type.value,
                        "host": event.host,
                    },
                )
            )
            count += 1
        return count

    def load_trace(self, trace: AuditTrace) -> dict[str, int]:
        """Load a full audit trace; returns node/edge counts loaded."""
        return {
            "nodes": self.load_entities(trace.entities),
            "edges": self.load_events(trace.events),
        }

    # -- incremental loading -------------------------------------------------

    def has_node(self, node_id: int) -> bool:
        """True when a node with ``node_id`` is already stored."""
        return node_id in self._nodes

    def has_edge(self, edge_id: int) -> bool:
        """True when an edge with ``edge_id`` is already stored."""
        return edge_id in self._edges

    def append_entities(self, entities: Iterable[SystemEntity]) -> int:
        """Load entities whose ids are not yet present; returns the number added."""
        return self.load_entities(
            entity for entity in entities if entity.entity_id not in self._nodes
        )

    def append_batch(
        self, entities: Iterable[SystemEntity], events: Iterable[SystemEvent]
    ) -> dict[str, int]:
        """Incrementally append one micro-batch of entities and events.

        Unlike :meth:`load_trace` this is safe to call repeatedly: nodes for
        entities observed in earlier batches are skipped rather than rejected
        as duplicates.
        """
        return {
            "nodes": self.append_entities(entities),
            "edges": self.load_events(events),
        }

    # -- node access ---------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Fetch one node by id.

        Raises:
            QueryError: if the id is unknown.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise QueryError(f"unknown node id {node_id}") from None

    def edge(self, edge_id: int) -> Edge:
        """Fetch one edge by id.

        Raises:
            QueryError: if the id is unknown.
        """
        try:
            return self._edges[edge_id]
        except KeyError:
            raise QueryError(f"unknown edge id {edge_id}") from None

    def labels(self) -> tuple[str, ...]:
        """Every node label present in the label index."""
        return tuple(self._label_index)

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label`` (O(1), from the label index)."""
        return len(self._label_index.get(label, ()))

    def property_index_count(self, label: str, property_name: str, value: Any) -> int | None:
        """Size of one property-index bucket, or ``None`` when not indexed."""
        if property_name not in DEFAULT_PROPERTY_INDEXES.get(label, ()):
            return None
        return len(self._property_index.get((label, property_name, value), ()))

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """All nodes carrying ``label``."""
        for node_id in self._label_index.get(label, ()):
            yield self._nodes[node_id]

    def find_nodes(self, label: str | None = None, **property_filters: Any) -> list[Node]:
        """Find nodes by label and exact property values.

        Uses the property index when an indexed property is filtered, otherwise
        scans the label bucket (or all nodes when no label is given).
        """
        if label is not None and property_filters:
            for property_name, value in property_filters.items():
                key = (label, property_name, value)
                if key in self._property_index:
                    candidates = [self._nodes[node_id] for node_id in self._property_index[key]]
                    return [
                        node
                        for node in candidates
                        if node.matches(label, **property_filters)
                    ]
        candidates_iter: Iterable[Node]
        if label is not None:
            candidates_iter = self.nodes_with_label(label)
        else:
            candidates_iter = self._nodes.values()
        return [node for node in candidates_iter if node.matches(label, **property_filters)]

    # -- traversal -------------------------------------------------------------

    def outgoing_edges(
        self,
        node_id: int,
        relationship: str | None = None,
        min_start: int | None = None,
        max_start: int | None = None,
    ) -> Iterator[Edge]:
        """Outgoing edges of ``node_id``, optionally restricted to one type.

        ``min_start``/``max_start`` bound the edges' start times (inclusive);
        the time-sorted adjacency arrays make the restriction a bisect, not a
        scan, so temporally pruned path search skips dead edges entirely.
        """
        yield from self._adjacent(self._outgoing, node_id, relationship, min_start, max_start)

    def incoming_edges(
        self,
        node_id: int,
        relationship: str | None = None,
        min_start: int | None = None,
        max_start: int | None = None,
    ) -> Iterator[Edge]:
        """Incoming edges of ``node_id``, optionally restricted to one type."""
        yield from self._adjacent(self._incoming, node_id, relationship, min_start, max_start)

    def _adjacent(
        self,
        adjacency: dict[int, dict[str, _TimeSortedEdges]],
        node_id: int,
        relationship: str | None,
        min_start: int | None,
        max_start: int | None,
    ) -> Iterator[Edge]:
        by_type = adjacency.get(node_id)
        if not by_type:
            return
        if relationship is not None:
            bucket = by_type.get(relationship)
            if bucket is None:
                return
            for edge_id in bucket.ids_between(min_start, max_start):
                yield self._edges[edge_id]
            return
        for bucket in by_type.values():
            for edge_id in bucket.ids_between(min_start, max_start):
                yield self._edges[edge_id]

    def out_degree(self, node_id: int, relationship: str | None = None) -> int:
        """Number of outgoing edges of ``node_id`` (O(1) per relationship bucket)."""
        return self._degree(self._outgoing, node_id, relationship)

    def in_degree(self, node_id: int, relationship: str | None = None) -> int:
        """Number of incoming edges of ``node_id`` (O(1) per relationship bucket)."""
        return self._degree(self._incoming, node_id, relationship)

    @staticmethod
    def _degree(
        adjacency: dict[int, dict[str, _TimeSortedEdges]],
        node_id: int,
        relationship: str | None,
    ) -> int:
        by_type = adjacency.get(node_id)
        if not by_type:
            return 0
        if relationship is not None:
            bucket = by_type.get(relationship)
            return len(bucket) if bucket is not None else 0
        return sum(len(bucket) for bucket in by_type.values())

    def edges_started_between(
        self,
        min_start: int | None,
        max_start: int | None,
        relationship: str | None = None,
    ) -> Iterator[Edge]:
        """Every edge whose start time lies in ``[min_start, max_start]``.

        Served from the global time index (per relationship type when one is
        given): the work is a bisect plus the matching edges, independent of
        total graph size — this is what seeds window-restricted and
        incremental (delta) path searches.
        """
        index = (
            self._edges_by_time
            if relationship is None
            else self._edges_by_time_by_relationship.get(relationship)
        )
        if index is None:
            return
        for edge_id in index.ids_between(min_start, max_start):
            yield self._edges[edge_id]

    def count_edges_started_between(
        self,
        min_start: int | None,
        max_start: int | None,
        relationship: str | None = None,
    ) -> int:
        """Number of edges starting in the window, by bisect (no enumeration)."""
        index = (
            self._edges_by_time
            if relationship is None
            else self._edges_by_time_by_relationship.get(relationship)
        )
        if index is None:
            return 0
        return index.count_between(min_start, max_start)

    def neighbors(self, node_id: int, relationship: str | None = None) -> Iterator[Node]:
        """Target nodes of the outgoing edges of ``node_id``."""
        for edge in self.outgoing_edges(node_id, relationship):
            yield self._nodes[edge.target_id]

    # -- statistics --------------------------------------------------------------

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    def statistics(self) -> dict[str, Any]:
        """Node/edge counts per label/relationship for EXPLAIN-style output."""
        per_label = {label: len(ids) for label, ids in self._label_index.items()}
        per_relationship = {
            relationship: len(index)
            for relationship, index in self._edges_by_time_by_relationship.items()
        }
        return {
            "nodes": self.node_count(),
            "edges": self.edge_count(),
            "nodes_by_label": dict(per_label),
            "edges_by_relationship": per_relationship,
        }
