"""A path search tests each endpoint filter as rarely as the indexes allow.

Wall-clock free, like ``test_relational_work_bound.py``: a counting wrapper
around a filter expression (and a spy on the LIKE tokenizer) count the work.
A ``LIKE`` is compiled once per distinct pattern, a filter over one indexed
property is evaluated once per distinct indexed value however many nodes
share it, and a backward search tests its sources by membership in the set
the plan already built, never by re-running the filter.
"""

from __future__ import annotations

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.pattern import EdgePattern, NodePattern, PathPattern
from repro.storage.graph.planner import CostGuidedPathMatcher
from repro.storage.relational import expression as expression_module
from repro.storage.relational.expression import Column, Expression, Like
from repro.storage.relational.vectorized import filter_positions
from repro.tbql.analysis.satisfiability import like_matches
from tests.oracles import PathMatcher

_EXENAMES = ("/bin/bash", "/bin/tar", "/usr/bin/python3", "/usr/sbin/nginx")


class _Counting(Expression):
    """Counts the evaluations of the wrapped filter."""

    def __init__(self, inner: Expression) -> None:
        self.inner = inner
        self.calls = 0

    def evaluate(self, row):
        self.calls += 1
        return self.inner.evaluate(row)

    def columns(self) -> set[str]:
        return self.inner.columns()


def _graph(processes: int, files: int = 20) -> GraphDatabase:
    """``processes`` processes sharing the four exenames; each writes every
    file once, and every bash forks the next process."""
    entities = [
        ProcessEntity(entity_id=index + 1, exename=_EXENAMES[index % len(_EXENAMES)], pid=index + 1)
        for index in range(processes)
    ]
    entities += [
        FileEntity(entity_id=10_000 + index, name=f"/srv/data/{index}") for index in range(files)
    ]
    entities.append(FileEntity(entity_id=20_000, name="/home/alice/secret.txt"))
    events = []
    for index in range(processes):
        process = index + 1
        base = 100 * index
        if process % len(_EXENAMES) == 1 and process < processes:
            events.append(
                SystemEvent(len(events) + 1, process, process + 1, Operation.FORK,
                            EntityType.PROCESS, base, base)
            )
        for offset, file_id in enumerate([*range(10_000, 10_000 + files), 20_000]):
            events.append(
                SystemEvent(len(events) + 1, process, file_id, Operation.WRITE,
                            EntityType.FILE, base + 1 + offset, base + 1 + offset)
            )
    graph = GraphDatabase()
    graph.append_batch(entities, events)
    return graph


def _pattern(source_filter: Expression) -> PathPattern:
    return PathPattern(
        source=NodePattern(label="process", filter=source_filter),
        target=NodePattern(label="file", filter=Like(Column("name"), "%/secret%")),
        final_edge=EdgePattern(relationship="write"),
        min_length=1,
        max_length=2,
    )


def test_a_like_pattern_is_compiled_once(monkeypatch):
    calls: list[str] = []
    tokenize = expression_module.like_tokens

    def spy(pattern: str):
        calls.append(pattern)
        return tokenize(pattern)

    monkeypatch.setattr(expression_module, "like_tokens", spy)
    pattern = "%compiled-once-%"  # used by no other test: not yet cached
    first, second = Like(Column("name"), pattern), Like(Column("name"), pattern, negate=True)
    for value in ("/a/compiled-once-x", "/b", None):
        first.evaluate({"name": value})
        second.evaluate({"name": value})
    filter_positions({"name": ["/a/compiled-once-y", "/c"]}, 2, first)
    like_matches(pattern, "/d/compiled-once-z")
    assert calls == [pattern]


def test_an_indexed_filter_is_evaluated_once_per_distinct_value():
    for processes in (40, 320):
        counted = _Counting(Like(Column("exename"), "%/bin/bash%"))
        plan = CostGuidedPathMatcher(_graph(processes)).plan(_pattern(counted))
        assert len(plan.sources) == processes // len(_EXENAMES)
        # Four distinct exenames, whatever the number of processes.
        assert counted.calls <= len(_EXENAMES)


def test_a_filter_over_an_unindexed_property_is_evaluated_per_node():
    counted = _Counting(Like(Column("pid"), "%1%"))
    CostGuidedPathMatcher(_graph(40)).plan(_pattern(counted))
    assert counted.calls == 40


def test_backward_enumeration_never_evaluates_the_source_filter():
    graph = _graph(80)
    counted = _Counting(Like(Column("exename"), "%/bin/bash%"))
    pattern = _pattern(counted)
    matcher = CostGuidedPathMatcher(graph)
    matcher.plan(pattern)
    planning = counted.calls
    counted.calls = 0
    paths = {(path.node_ids(), path.edge_ids()) for path in matcher.match(pattern)}
    assert matcher.last_plan is not None and matcher.last_plan.strategy == "backward"
    # ``match`` plans again; the enumeration itself adds nothing.
    assert counted.calls == planning
    assert paths == {
        (path.node_ids(), path.edge_ids()) for path in PathMatcher(graph).match(pattern)
    }
    assert len(paths) == 2 * 80 // len(_EXENAMES)  # each bash directly, and via its fork
