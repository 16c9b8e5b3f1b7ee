"""Unit tests for the property-graph store."""

from __future__ import annotations

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.errors import QueryError
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.model import Edge, Node, Path


@pytest.fixture
def graph() -> GraphDatabase:
    graph = GraphDatabase()
    entities = [
        ProcessEntity(entity_id=1, exename="/bin/tar", pid=10),
        ProcessEntity(entity_id=2, exename="/bin/bzip2", pid=11),
        FileEntity(entity_id=3, name="/etc/passwd"),
        FileEntity(entity_id=4, name="/tmp/upload.tar"),
    ]
    events = [
        SystemEvent(1, 1, 3, Operation.READ, EntityType.FILE, 100, 110),
        SystemEvent(2, 1, 4, Operation.WRITE, EntityType.FILE, 200, 210),
        SystemEvent(3, 2, 4, Operation.READ, EntityType.FILE, 300, 310),
    ]
    graph.append_batch(entities, events)
    return graph


class TestModel:
    def test_node_matches(self):
        node = Node(node_id=1, label="file", properties={"name": "/etc/passwd"})
        assert node.matches("file", name="/etc/passwd")
        assert not node.matches("process")
        assert not node.matches("file", name="/etc/shadow")

    def test_edge_time_accessors(self):
        edge = Edge(edge_id=1, source_id=1, target_id=2, relationship="read",
                    properties={"starttime": 5, "endtime": 9})
        assert edge.start_time == 5
        assert edge.end_time == 9
        assert edge.get("amount", 0) == 0

    def test_path_invariant(self):
        node_a = Node(1, "process")
        node_b = Node(2, "file")
        edge = Edge(1, 1, 2, "read")
        path = Path(nodes=(node_a, node_b), edges=(edge,))
        assert path.length == 1
        assert path.start is node_a and path.end is node_b
        with pytest.raises(ValueError):
            Path(nodes=(node_a,), edges=(edge,))


class TestGraphDatabase:
    def test_load_counts(self, graph: GraphDatabase):
        assert graph.node_count() == 4
        assert graph.edge_count() == 3

    def test_duplicate_node_rejected(self, graph: GraphDatabase):
        with pytest.raises(QueryError, match="duplicate node"):
            graph.add_node(Node(node_id=1, label="file"))

    def test_duplicate_edge_rejected(self, graph: GraphDatabase):
        with pytest.raises(QueryError, match="duplicate edge"):
            graph.add_edge(Edge(edge_id=1, source_id=1, target_id=3, relationship="read"))

    def test_edge_with_unknown_endpoint_rejected(self, graph: GraphDatabase):
        with pytest.raises(QueryError, match="unknown source"):
            graph.add_edge(Edge(edge_id=99, source_id=999, target_id=3, relationship="read"))
        with pytest.raises(QueryError, match="unknown target"):
            graph.add_edge(Edge(edge_id=99, source_id=1, target_id=999, relationship="read"))

    def test_node_and_edge_lookup(self, graph: GraphDatabase):
        assert graph.node(1).get("exename") == "/bin/tar"
        assert graph.edge(1).relationship == "read"
        with pytest.raises(QueryError):
            graph.node(999)
        with pytest.raises(QueryError):
            graph.edge(999)

    def test_nodes_with_label(self, graph: GraphDatabase):
        assert {node.node_id for node in graph.nodes_with_label("process")} == {1, 2}
        assert list(graph.nodes_with_label("unknown")) == []

    def test_find_nodes_uses_property_index(self, graph: GraphDatabase):
        found = graph.find_nodes("file", name="/etc/passwd")
        assert [node.node_id for node in found] == [3]

    def test_find_nodes_without_label(self, graph: GraphDatabase):
        found = graph.find_nodes(exename="/bin/tar")
        assert [node.node_id for node in found] == [1]

    def test_find_nodes_no_match(self, graph: GraphDatabase):
        assert graph.find_nodes("file", name="/nonexistent") == []

    def test_outgoing_edges_by_relationship(self, graph: GraphDatabase):
        reads = list(graph.outgoing_edges(1, "read"))
        all_edges = list(graph.outgoing_edges(1))
        assert [edge.edge_id for edge in reads] == [1]
        assert {edge.edge_id for edge in all_edges} == {1, 2}

    def test_incoming_edges(self, graph: GraphDatabase):
        incoming = list(graph.incoming_edges(4))
        assert {edge.edge_id for edge in incoming} == {2, 3}
        assert [edge.edge_id for edge in graph.incoming_edges(4, "read")] == [3]

    def test_neighbors(self, graph: GraphDatabase):
        assert {node.node_id for node in graph.neighbors(1)} == {3, 4}

    def test_outgoing_of_unknown_node_is_empty(self, graph: GraphDatabase):
        assert list(graph.outgoing_edges(999)) == []

    def test_statistics(self, graph: GraphDatabase):
        stats = graph.statistics()
        assert stats["nodes"] == 4
        assert stats["edges"] == 3
        assert stats["nodes_by_label"]["process"] == 2
        assert stats["edges_by_relationship"]["read"] == 2
