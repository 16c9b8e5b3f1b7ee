"""Property/stress tests for the graph path-search engine (hypothesis).

Two independent oracles pin the new machinery down:

* **cross-backend** — a randomized audit trace is loaded into the combined
  store and the same TBQL queries are executed with ``backend="auto"``
  (event patterns on the relational tables) and ``backend="graph"``; both
  must bind identical audit event-id sets and identical result rows;
* **planner vs. DFS oracle** — randomized graph path patterns (direction,
  lengths, windows, id constraints, endpoint filters) are matched with the
  cost-guided :class:`CostGuidedPathMatcher` and the always-forward DFS
  :class:`~tests.oracles.PathMatcher`; the enumerated path sets must be
  identical, whichever strategy the planner picks and with every strategy
  forced.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditing.entities import FileEntity, ProcessEntity
from repro.auditing.events import EntityType, Operation, SystemEvent
from repro.auditing.trace import AuditTrace
from repro.storage.graph.graphdb import GraphDatabase
from repro.storage.graph.pattern import EdgePattern, NodePattern
from repro.storage.graph.pattern import PathPattern as GraphPathPattern
from repro.storage.graph.planner import CostGuidedPathMatcher, SearchPlan
from repro.storage.loader import AuditStore
from repro.storage.relational.expression import And, Column, Comparison, Like, Literal, Or
from repro.tbql.executor import TBQLExecutionEngine
from tests.oracles import PathMatcher

_EXENAMES = ["/bin/bash", "/bin/tar", "/usr/bin/python3"]
_FILENAMES = ["/etc/passwd", "/tmp/staging/archive.tar", "/home/alice/doc.txt"]

#: (subject process index, object index, operation tag, start time)
_event_specs = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from(["fork", "read", "write"]),
        st.integers(0, 60),
    ),
    min_size=0,
    max_size=25,
)


def _build_trace(specs) -> AuditTrace:
    """Five processes and five files, with randomized events between them."""
    entities = [
        ProcessEntity(
            entity_id=index + 1,
            exename=_EXENAMES[index % len(_EXENAMES)],
            pid=index + 1,
            host=f"h{index % 2}",
        )
        for index in range(5)
    ]
    entities += [
        FileEntity(
            entity_id=100 + index,
            name=f"{_FILENAMES[index % len(_FILENAMES)]}.{index}",
            host=f"h{index % 2}",
        )
        for index in range(5)
    ]
    events = []
    for event_id, (subject, obj, operation, start) in enumerate(specs, start=1):
        if operation == "fork":
            # subject == obj is deliberately allowed: self-loop events must
            # behave identically across backends and matchers (matched at
            # 1 hop, excluded from longer simple paths).
            events.append(
                SystemEvent(
                    event_id, subject + 1, obj + 1, Operation.FORK,
                    EntityType.PROCESS, start, start + 1,
                )
            )
        else:
            op = Operation.READ if operation == "read" else Operation.WRITE
            events.append(
                SystemEvent(
                    event_id, subject + 1, 100 + obj, op, EntityType.FILE, start, start + 1
                )
            )
    return AuditTrace(entities=entities, events=events)


_QUERIES = [
    'proc p read file f as e1 return p, f',
    'proc p["%bash%"] write file f as e1 return distinct p, f',
    'proc p fork proc h as e1 proc h write file f as e2 '
    "with e1 before e2 return p, h, f",
    'proc p["%bash%"] ~>(1~3)[write] file f as e return distinct p, f',
    'proc p ~>(2~4)[read] file f["%staging%"] as e return distinct p, f',
    # Negated operations: a single hop, and the final hop of a path.
    'proc p not read file f as e1 return p, f',
    'proc p["%bash%"] ~>(1~3)[not write] file f as e return distinct p, f',
]


class _DfsMatcher(PathMatcher):
    """The DFS oracle standing in for the engine's matcher (it plans nothing)."""

    last_plan = None


class TestCrossBackendParity:
    """backend="auto" and backend="graph" bind identical event sets."""

    @settings(max_examples=60, deadline=None)
    @given(_event_specs, st.sampled_from(_QUERIES))
    def test_backends_bind_identical_event_ids(self, specs, query):
        store = AuditStore(apply_reduction=False)
        store.load_trace(_build_trace(specs))
        relational = TBQLExecutionEngine(store, backend="auto").execute(query)
        graph = TBQLExecutionEngine(store, backend="graph").execute(query)
        assert {
            event_id: set(ids) for event_id, ids in relational.matched_event_ids.items()
        } == {event_id: set(ids) for event_id, ids in graph.matched_event_ids.items()}
        assert sorted(relational.rows) == sorted(graph.rows)

    @settings(max_examples=40, deadline=None)
    @given(_event_specs, st.sampled_from(_QUERIES))
    def test_planner_engine_matches_reference_engine(self, specs, query):
        store = AuditStore(apply_reduction=False)
        store.load_trace(_build_trace(specs))
        engine = TBQLExecutionEngine(store, backend="graph")
        planned = engine.execute(query)
        with mock.patch("repro.tbql.executor.CostGuidedPathMatcher", _DfsMatcher):
            oracle = engine.execute(query)
        assert sorted(planned.rows) == sorted(oracle.rows)
        assert {
            event_id: set(ids) for event_id, ids in planned.matched_event_ids.items()
        } == {event_id: set(ids) for event_id, ids in oracle.matched_event_ids.items()}


#: Endpoint filters: one indexed property (``exename`` on processes, ``name``
#: on files, so each is also an attribute the other label lacks), one
#: unindexed property (``pid``, ``host``), two properties, and an attribute
#: no node has.
_FILTERS = [
    None,
    Like(Column("exename"), "%bash%"),
    Like(Column("exename"), "%/bin/%", negate=True),
    Like(Column("name"), "%staging%"),
    Like(Column("pid"), "%2%"),
    Like(Column("host"), "%1"),
    Or([Like(Column("exename"), "%tar%"), Comparison(Column("pid"), "<", Literal(3))]),
    And([Like(Column("host"), "h0"), Like(Column("name"), "%.1")]),
    Like(Column("dstip"), "%"),
]

_pattern_specs = st.fixed_dictionaries(
    {
        "min_length": st.integers(1, 3),
        "extra_length": st.integers(0, 2),
        "source_exename": st.one_of(st.none(), st.sampled_from(_EXENAMES)),
        "source_filter": st.sampled_from(_FILTERS),
        "target_filter": st.sampled_from(_FILTERS),
        "target_label": st.sampled_from(["file", "process", None]),
        "relationship": st.sampled_from(["read", "write", "fork", None]),
        "window": st.one_of(
            st.none(),
            st.tuples(st.integers(0, 30), st.integers(30, 61)),
        ),
        "temporal": st.booleans(),
        "source_ids": st.one_of(
            st.none(), st.frozensets(st.integers(1, 5), max_size=3)
        ),
        "target_ids": st.one_of(
            st.none(), st.frozensets(st.integers(1, 105), max_size=4)
        ),
    }
)


def _path_set(paths) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    return {(path.node_ids(), path.edge_ids()) for path in paths}


class TestPlannerAgainstOracle:
    """Every planner strategy enumerates exactly the oracle's path set."""

    @settings(max_examples=200, deadline=None)
    @given(_event_specs, _pattern_specs)
    def test_match_sets_identical(self, specs, shape):
        graph = GraphDatabase()
        trace = _build_trace(specs)
        graph.append_batch(trace.entities, trace.events)
        properties = (
            {"exename": shape["source_exename"]}
            if shape["source_exename"] is not None
            else {}
        )
        pattern = GraphPathPattern(
            source=NodePattern(
                label="process",
                properties=properties,
                filter=shape["source_filter"],
                allowed_ids=shape["source_ids"],
            ),
            target=NodePattern(
                label=shape["target_label"],
                filter=shape["target_filter"],
                allowed_ids=shape["target_ids"],
            ),
            final_edge=EdgePattern(
                relationship=shape["relationship"], window=shape["window"]
            ),
            min_length=shape["min_length"],
            max_length=shape["min_length"] + shape["extra_length"],
            enforce_temporal_order=shape["temporal"],
        )
        oracle = _path_set(PathMatcher(graph).match(pattern))
        matcher = CostGuidedPathMatcher(graph)
        assert _path_set(matcher.match(pattern)) == oracle, matcher.last_plan
        # The plan's own choice is one strategy; force every other one too.
        sources = matcher._candidates(pattern.source)
        targets = matcher._candidates(pattern.target)
        forced = [("forward", False), ("forward", True), ("backward", False)]
        if shape["window"] is not None:
            forced.append(("window-seeded", False))
        for strategy, reachability in forced:
            plan = SearchPlan(
                strategy=strategy,
                source_candidates=len(sources),
                target_candidates=len(targets),
                uses_reachability=reachability,
                sources=sources,
                targets=targets,
            )
            with mock.patch.object(matcher, "plan", return_value=plan):
                assert _path_set(matcher.match(pattern)) == oracle, plan
