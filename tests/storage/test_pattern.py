"""Unit tests for graph path pattern matching."""

from __future__ import annotations

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.storage.graph.cypher import render_path_pattern
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.model import Edge, Node
from repro.storage.graph.pattern import EdgePattern, NodePattern, PathPattern
from tests.oracles import PathMatcher


@pytest.fixture
def chain_graph() -> GraphDatabase:
    """tar -> upload.tar -> (bzip2 reads) ... a chain through an intermediate process.

    Structure (subject --op--> object):
        tar   --read-->  passwd          (t=100)
        tar   --write--> upload.tar      (t=200)
        bzip2 --read-->  upload.tar      (t=300)
        bzip2 --write--> upload.tar.bz2  (t=400)
    """
    graph = GraphDatabase()
    entities = [
        ProcessEntity(entity_id=1, exename="/bin/tar", pid=1),
        ProcessEntity(entity_id=2, exename="/bin/bzip2", pid=2),
        FileEntity(entity_id=3, name="/etc/passwd"),
        FileEntity(entity_id=4, name="/tmp/upload.tar"),
        FileEntity(entity_id=5, name="/tmp/upload.tar.bz2"),
    ]
    events = [
        SystemEvent(1, 1, 3, Operation.READ, EntityType.FILE, 100, 110),
        SystemEvent(2, 1, 4, Operation.WRITE, EntityType.FILE, 200, 210),
        SystemEvent(3, 2, 4, Operation.READ, EntityType.FILE, 300, 310),
        SystemEvent(4, 2, 5, Operation.WRITE, EntityType.FILE, 400, 410),
    ]
    graph.load_trace(AuditTrace(entities=entities, events=events))
    return graph


class TestNodeEdgePatterns:
    def test_node_pattern_label_and_properties(self, chain_graph: GraphDatabase):
        pattern = NodePattern(label="process", properties={"exename": "/bin/tar"})
        assert pattern.matches(chain_graph.node(1))
        assert not pattern.matches(chain_graph.node(2))
        assert not pattern.matches(chain_graph.node(3))

    def test_node_pattern_predicate(self, chain_graph: GraphDatabase):
        pattern = NodePattern(predicate=lambda node: "tar" in str(node.get("name", "")))
        assert pattern.matches(chain_graph.node(4))
        assert not pattern.matches(chain_graph.node(3))

    def test_edge_pattern(self, chain_graph: GraphDatabase):
        pattern = EdgePattern(relationship="read", predicate=lambda edge: edge.start_time >= 300)
        assert pattern.matches(chain_graph.edge(3))
        assert not pattern.matches(chain_graph.edge(1))
        assert not pattern.matches(chain_graph.edge(4))

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            PathPattern(min_length=0, max_length=1)
        with pytest.raises(ValueError):
            PathPattern(min_length=3, max_length=2)


class TestSingleHopMatching:
    def test_exact_match(self, chain_graph: GraphDatabase):
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/tar"}),
            target=NodePattern(label="file", properties={"name": "/etc/passwd"}),
            final_edge=EdgePattern(relationship="read"),
        )
        paths = list(PathMatcher(chain_graph).match(pattern))
        assert len(paths) == 1
        assert paths[0].edge_ids() == (1,)

    def test_unconstrained_target(self, chain_graph: GraphDatabase):
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/bzip2"}),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(),
        )
        paths = list(PathMatcher(chain_graph).match(pattern))
        assert {path.edge_ids()[0] for path in paths} == {3, 4}

    def test_no_match(self, chain_graph: GraphDatabase):
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/nonexistent"}),
            target=NodePattern(label="file"),
        )
        assert list(PathMatcher(chain_graph).match(pattern)) == []


class TestVariableLengthMatching:
    def test_two_hop_path_through_intermediate_file(self, chain_graph: GraphDatabase):
        # tar ~>(1~3)[read] upload.tar: path tar -write-> upload.tar is length 1
        # but the final hop must be a read; the 1-hop write does not qualify,
        # and there is no longer path ending in a read at upload.tar from tar
        # (upload.tar has no outgoing edges), so only paths via intermediate
        # nodes could match — none exist here.
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/tar"}),
            target=NodePattern(label="file", properties={"name": "/tmp/upload.tar"}),
            final_edge=EdgePattern(relationship="read"),
            min_length=1,
            max_length=3,
        )
        assert list(PathMatcher(chain_graph).match(pattern)) == []

    def test_multi_hop_reaches_distant_file(self, chain_graph: GraphDatabase):
        # There is no process->process edge in this graph, so reaching
        # upload.tar.bz2 from tar requires following file nodes; file nodes
        # have no outgoing edges either, hence only bzip2 can write it.
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/bzip2"}),
            target=NodePattern(label="file", properties={"name": "/tmp/upload.tar.bz2"}),
            final_edge=EdgePattern(relationship="write"),
            min_length=1,
            max_length=4,
        )
        paths = list(PathMatcher(chain_graph).match(pattern))
        assert len(paths) == 1

    def test_multi_hop_with_forked_process_chain(self):
        """A fork chain: bash forks tar, tar writes the archive.

        ``proc bash ~>(2~3)[write] file archive`` must find the 2-hop path
        even though bash never writes the archive directly.
        """
        graph = GraphDatabase()
        entities = [
            ProcessEntity(entity_id=1, exename="/bin/bash", pid=1),
            ProcessEntity(entity_id=2, exename="/bin/tar", pid=2),
            FileEntity(entity_id=3, name="/tmp/upload.tar"),
        ]
        events = [
            SystemEvent(1, 1, 2, Operation.FORK, EntityType.PROCESS, 100, 110),
            SystemEvent(2, 2, 3, Operation.WRITE, EntityType.FILE, 200, 210),
        ]
        graph.load_trace(AuditTrace(entities=entities, events=events))
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/bash"}),
            target=NodePattern(label="file", properties={"name": "/tmp/upload.tar"}),
            final_edge=EdgePattern(relationship="write"),
            min_length=2,
            max_length=3,
        )
        paths = list(PathMatcher(graph).match(pattern))
        assert len(paths) == 1
        assert paths[0].length == 2
        assert paths[0].edge_ids() == (1, 2)

    def test_temporal_order_enforced(self):
        """A path whose second hop starts before the first is rejected."""
        graph = GraphDatabase()
        entities = [
            ProcessEntity(entity_id=1, exename="/bin/bash", pid=1),
            ProcessEntity(entity_id=2, exename="/bin/tar", pid=2),
            FileEntity(entity_id=3, name="/tmp/upload.tar"),
        ]
        events = [
            SystemEvent(1, 1, 2, Operation.FORK, EntityType.PROCESS, 500, 510),
            SystemEvent(2, 2, 3, Operation.WRITE, EntityType.FILE, 200, 210),
        ]
        graph.load_trace(AuditTrace(entities=entities, events=events))
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/bash"}),
            target=NodePattern(label="file", properties={"name": "/tmp/upload.tar"}),
            final_edge=EdgePattern(relationship="write"),
            min_length=2,
            max_length=2,
        )
        assert list(PathMatcher(graph).match(pattern)) == []
        relaxed = PathPattern(
            source=pattern.source,
            target=pattern.target,
            final_edge=pattern.final_edge,
            min_length=2,
            max_length=2,
            enforce_temporal_order=False,
        )
        assert len(list(PathMatcher(graph).match(relaxed))) == 1

    def test_min_length_respected(self, chain_graph: GraphDatabase):
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/tar"}),
            target=NodePattern(label="file", properties={"name": "/etc/passwd"}),
            final_edge=EdgePattern(relationship="read"),
            min_length=2,
            max_length=3,
        )
        # The only tar->passwd path is the direct read (length 1) < min_length.
        assert list(PathMatcher(chain_graph).match(pattern)) == []


class TestUnconstrainedSourceLabels:
    def test_unconstrained_source_covers_every_label(self):
        """Regression: sources were drawn from a hard-coded label whitelist
        ("process", "file", "network"), silently skipping any other label."""
        graph = GraphDatabase()
        graph.add_node(Node(node_id=1, label="container", properties={"name": "sandbox-1"}))
        graph.add_node(Node(node_id=2, label="file", properties={"name": "/tmp/out"}))
        graph.add_edge(
            Edge(
                edge_id=1, source_id=1, target_id=2, relationship="write",
                properties={"starttime": 100, "endtime": 110},
            )
        )
        pattern = PathPattern(
            source=NodePattern(),  # no label, no properties: fully unconstrained
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="write"),
        )
        paths = list(PathMatcher(graph).match(pattern))
        assert [path.start.label for path in paths] == ["container"]


class TestSingleEdgeFastPath:
    def test_match_single_edges_agrees_with_general_search(self, chain_graph: GraphDatabase):
        """Regression: the 1-hop fast path was a line-for-line copy of
        ``_single_hop`` (and skipped the source predicate check); it now
        delegates, so the two cannot drift."""
        pattern = PathPattern(
            source=NodePattern(
                label="process",
                predicate=lambda node: "tar" in str(node.get("exename", "")),
            ),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(),
        )
        matcher = PathMatcher(chain_graph)
        fast = {path.edge_ids() for path in matcher.match_single_edges(pattern)}
        general = {path.edge_ids() for path in matcher.match(pattern)}
        assert fast == general
        assert fast == {(1,), (2,)}


class TestDeclarativeConstraints:
    def test_allowed_ids_restricts_sources(self, chain_graph: GraphDatabase):
        pattern = PathPattern(
            source=NodePattern(label="process", allowed_ids=frozenset({2})),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(),
        )
        paths = list(PathMatcher(chain_graph).match(pattern))
        assert {path.start.node_id for path in paths} == {2}

    def test_edge_window_bounds_start_time(self, chain_graph: GraphDatabase):
        pattern = PathPattern(
            source=NodePattern(label="process"),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(window=(150, 350)),
        )
        paths = list(PathMatcher(chain_graph).match(pattern))
        assert {path.edge_ids()[0] for path in paths} == {2, 3}


class TestCypherRendering:
    def test_single_hop_rendering(self):
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/tar"}),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="read"),
        )
        cypher = render_path_pattern(pattern)
        assert "MATCH" in cypher and "RETURN" in cypher
        assert ":Process" in cypher and ":READ" in cypher

    def test_variable_length_rendering(self):
        pattern = PathPattern(
            source=NodePattern(label="process"),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="read"),
            min_length=2,
            max_length=4,
        )
        cypher = render_path_pattern(pattern)
        assert "*1..3" in cypher  # intermediate segment is min-1 .. max-1
