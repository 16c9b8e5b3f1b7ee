"""Unit tests for the cost-guided path planner and the time-sorted graph indexes."""

from __future__ import annotations

import pytest

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.pattern import EdgePattern, NodePattern, PathPattern
from repro.storage.graph.planner import CostGuidedPathMatcher
from tests.oracles import PathMatcher


def _chain_store(chains: int = 8, noise_files_per_helper: int = 10) -> GraphDatabase:
    """bash -> fork -> helper -> write staging archive, plus noisy helper reads."""
    graph = GraphDatabase()
    entities = []
    events = []
    event_id = 1
    next_id = 1
    for index in range(chains):
        bash = next_id
        helper = next_id + 1
        staged = next_id + 2
        next_id += 3
        entities.append(ProcessEntity(entity_id=bash, exename="/bin/bash", pid=bash))
        entities.append(ProcessEntity(entity_id=helper, exename="/usr/bin/python3", pid=helper))
        entities.append(FileEntity(entity_id=staged, name=f"/tmp/staging/a{index}.tar"))
        base = index * 100
        events.append(
            SystemEvent(event_id, bash, helper, Operation.FORK, EntityType.PROCESS, base, base + 1)
        )
        event_id += 1
        for noise in range(noise_files_per_helper):
            noise_file = next_id
            next_id += 1
            entities.append(FileEntity(entity_id=noise_file, name=f"/var/noise/{index}-{noise}"))
            events.append(
                SystemEvent(
                    event_id, helper, noise_file, Operation.READ, EntityType.FILE,
                    base + 2 + noise, base + 3 + noise,
                )
            )
            event_id += 1
        events.append(
            SystemEvent(
                event_id, helper, staged, Operation.WRITE, EntityType.FILE,
                base + 50, base + 51,
            )
        )
        event_id += 1
    graph.load_trace(AuditTrace(entities=entities, events=events))
    return graph


@pytest.fixture
def chain_graph() -> GraphDatabase:
    return _chain_store()


def _paths(matcher, pattern):
    return {(path.node_ids(), path.edge_ids()) for path in matcher.match(pattern)}


class TestStrategySelection:
    def test_backward_when_target_is_selective(self, chain_graph):
        pattern = PathPattern(
            source=NodePattern(label="process"),
            target=NodePattern(label="file", properties={"name": "/tmp/staging/a0.tar"}),
            final_edge=EdgePattern(relationship="write"),
            min_length=1,
            max_length=2,
        )
        matcher = CostGuidedPathMatcher(chain_graph)
        result = _paths(matcher, pattern)
        assert matcher.last_plan.strategy == "backward"
        assert result == _paths(PathMatcher(chain_graph), pattern)

    def test_forward_when_source_is_selective(self, chain_graph):
        pattern = PathPattern(
            # One specific bash process; targets are the whole file bucket.
            source=NodePattern(label="process", allowed_ids=frozenset({1})),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="write"),
            min_length=1,
            max_length=2,
        )
        matcher = CostGuidedPathMatcher(chain_graph)
        result = _paths(matcher, pattern)
        assert matcher.last_plan.strategy == "forward"
        assert result == _paths(PathMatcher(chain_graph), pattern)
        assert result  # the 2-hop bash -> helper -> staging path exists

    def test_window_seeded_when_final_edge_is_windowed(self, chain_graph):
        pattern = PathPattern(
            source=NodePattern(label="process"),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="write", window=(700, 800)),
            min_length=1,
            max_length=3,
        )
        matcher = CostGuidedPathMatcher(chain_graph)
        result = _paths(matcher, pattern)
        plan = matcher.last_plan
        assert plan.strategy == "window-seeded"
        # Only the last chain's write (start 750) lies in the window.
        assert plan.window_edges == 1
        assert result == _paths(PathMatcher(chain_graph), pattern)

    def test_empty_plan_short_circuits(self, chain_graph):
        pattern = PathPattern(
            source=NodePattern(label="process", properties={"exename": "/bin/nonexistent"}),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="write"),
        )
        matcher = CostGuidedPathMatcher(chain_graph)
        assert _paths(matcher, pattern) == set()
        assert matcher.last_plan.strategy == "empty"

    def test_meet_in_middle_on_dense_expansion(self):
        """A dense process mesh makes the DFS estimate exceed one edge sweep."""
        graph = GraphDatabase()
        processes = [
            ProcessEntity(entity_id=index, exename="/bin/worker", pid=index)
            for index in range(1, 13)
        ]
        target_file = FileEntity(entity_id=99, name="/tmp/out")
        events = []
        event_id = 1
        for src in range(1, 13):
            for dst in range(1, 13):
                if src != dst:
                    events.append(
                        SystemEvent(
                            event_id, src, dst, Operation.FORK, EntityType.PROCESS,
                            event_id, event_id + 1,
                        )
                    )
                    event_id += 1
        events.append(
            SystemEvent(event_id, 12, 99, Operation.WRITE, EntityType.FILE, 10_000, 10_001)
        )
        graph.load_trace(AuditTrace(entities=processes + [target_file], events=events))
        pattern = PathPattern(
            # Selective source keeps the search forward; the mesh's branching
            # factor still makes the DFS estimate exceed one edge sweep, so the
            # reachability map is built.
            source=NodePattern(label="process", allowed_ids=frozenset({1})),
            target=NodePattern(label="process"),
            final_edge=EdgePattern(relationship="fork"),
            min_length=1,
            max_length=4,
        )
        matcher = CostGuidedPathMatcher(graph)
        result = _paths(matcher, pattern)
        plan = matcher.last_plan
        assert plan.strategy == "forward" and plan.uses_reachability
        assert result == _paths(PathMatcher(graph), pattern)


class TestSelfLoopSemantics:
    """subject == object events: matched at 1 hop (SQL semantics), excluded
    from variable-length paths (simple-path semantics) — on every strategy,
    exactly like the DFS oracle."""

    @pytest.fixture
    def loop_graph(self) -> GraphDatabase:
        """One process with a self-loop fork plus five file reads (the reads
        inflate the forward fanout so each strategy is genuinely reachable)."""
        graph = GraphDatabase()
        entities = [ProcessEntity(entity_id=1, exename="/bin/x", pid=1)]
        entities += [FileEntity(entity_id=10 + i, name=f"/tmp/f{i}") for i in range(5)]
        events = [SystemEvent(10, 1, 1, Operation.FORK, EntityType.PROCESS, 100, 101)]
        events += [
            SystemEvent(20 + i, 1, 10 + i, Operation.READ, EntityType.FILE, 200 + i, 201 + i)
            for i in range(5)
        ]
        graph.load_trace(AuditTrace(entities=entities, events=events))
        return graph

    def _pattern(self, max_length: int, **overrides) -> PathPattern:
        settings = dict(
            source=NodePattern(label="process"),
            target=NodePattern(label="process"),
            final_edge=EdgePattern(relationship="fork"),
            min_length=1,
            max_length=max_length,
        )
        settings.update(overrides)
        return PathPattern(**settings)

    @pytest.mark.parametrize("max_length", [1, 2])
    def test_every_strategy_agrees_with_oracle(self, loop_graph, max_length):
        shapes = {
            # Unlabelled target: its estimate covers every node, so the
            # forward fanout never exceeds it and the search stays forward.
            "forward": {"target": NodePattern()},
            # Process-labelled target (one candidate) vs. six outgoing edges:
            # the final-hop-first backward strategy wins.
            "backward": {},
            "window-seeded": {
                "final_edge": EdgePattern(relationship="fork", window=(100, 100)),
            },
        }
        for name, overrides in shapes.items():
            pattern = self._pattern(max_length, **overrides)
            oracle = _paths(PathMatcher(loop_graph), pattern)
            matcher = CostGuidedPathMatcher(loop_graph)
            assert _paths(matcher, pattern) == oracle, (name, matcher.last_plan)
            assert matcher.last_plan.strategy == name
            expected = {((1, 1), (10,))} if max_length == 1 else set()
            assert oracle == expected, name


class TestTimeSortedIndexes:
    def test_adjacency_is_time_sorted_even_for_out_of_order_loads(self):
        graph = GraphDatabase()
        graph.load_trace(
            AuditTrace(
                entities=[
                    ProcessEntity(entity_id=1, exename="/bin/x", pid=1),
                    FileEntity(entity_id=2, name="/tmp/a"),
                ],
                events=[
                    SystemEvent(1, 1, 2, Operation.WRITE, EntityType.FILE, 300, 301),
                    SystemEvent(2, 1, 2, Operation.WRITE, EntityType.FILE, 100, 101),
                    SystemEvent(3, 1, 2, Operation.WRITE, EntityType.FILE, 200, 201),
                ],
            )
        )
        starts = [edge.start_time for edge in graph.outgoing_edges(1)]
        assert starts == sorted(starts)
        assert [edge.edge_id for edge in graph.outgoing_edges(1, min_start=150)] == [3, 1]
        assert [edge.edge_id for edge in graph.incoming_edges(2, max_start=250)] == [2, 3]

    def test_global_time_index_and_counts(self, chain_graph):
        writes = list(chain_graph.edges_started_between(0, 99, relationship="write"))
        assert [edge.edge_id for edge in writes] == [12]
        assert chain_graph.count_edges_started_between(0, 99, relationship="write") == 1
        assert chain_graph.count_edges_started_between(None, None) == chain_graph.edge_count()

    def test_degrees_and_labels(self, chain_graph):
        assert chain_graph.out_degree(2) == 11  # helper: 10 noise reads + 1 write
        assert chain_graph.out_degree(2, "write") == 1
        assert chain_graph.in_degree(3, "write") == 1
        assert set(chain_graph.labels()) == {"process", "file"}
        assert chain_graph.label_count("process") == 16

    def test_huge_hop_bounds_plan_without_overflow(self, chain_graph):
        """Regression: the DFS-expansion estimate is compared in log space —
        a parser-valid bound like ~>(2~1200) must not overflow a float power."""
        pattern = PathPattern(
            source=NodePattern(label="process"),
            target=NodePattern(label="file"),
            final_edge=EdgePattern(relationship="write"),
            min_length=2,
            max_length=1200,
        )
        matcher = CostGuidedPathMatcher(chain_graph)
        result = _paths(matcher, pattern)
        assert matcher.last_plan is not None
        assert result == _paths(PathMatcher(chain_graph), pattern)
