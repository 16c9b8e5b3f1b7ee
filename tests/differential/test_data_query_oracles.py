"""Data-query differential: what the engine asks its stores, replayed on the oracles.

The engine answers a TBQL hunt by handing ``SelectQuery`` objects to
``store.relational.execute`` and ``PathPattern`` objects to
``CostGuidedPathMatcher.match``.  This module records every one of those data
queries while the campaign hunts run — ad-hoc on ``auto`` and ``graph``, and
as standing hunts over one streamed replay — and replays each on the oracles
under ``tests/oracles/``: the row-dict executor and sqlite for relational
queries, the DFS matcher for path patterns.  Row multisets / path sets must be
equal.

A query is replayed the moment it is recorded, against the store state the
engine saw: a streamed store keeps growing, so a later replay of a
watermark-windowed query would see rows the engine could not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import pytest

from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.scenarios import GeneratedCampaign, generate_campaigns
from repro.storage.graph.pattern import PathPattern
from repro.storage.graph.planner import CostGuidedPathMatcher
from repro.storage.loader import AuditStore
from repro.storage.relational.expression import And, Between, Expression, InList
from repro.storage.relational.query import QueryResult, SelectQuery
from repro.streaming.source import ReplaySource
from tests.oracles import PathMatcher, ReferenceQueryExecutor, SqliteRelationalDatabase

CAMPAIGN_COUNT = 8

#: Every data-query shape the engine emits; each campaign must replay them all.
SHAPES = {
    "plain pattern",
    "entity-id IN constraint",
    "watermark BETWEEN window",
    "multi-operation IN",
    "multi-operation NOT IN",
    "variable-length path",
    "single-hop graph pattern",
}


@dataclass
class RecordedQuery:
    """One data query, the engine's answer and each oracle's answer."""

    query: SelectQuery | PathPattern
    shapes: set[str]
    engine: Any
    oracles: dict[str, Any]


def _conjuncts(expression: Expression) -> list[Expression]:
    return expression.flattened() if isinstance(expression, And) else [expression]


def _relational_shapes(query: SelectQuery) -> set[str]:
    shapes: set[str] = set()
    for predicate in query.filters.values():
        for conjunct in _conjuncts(predicate):
            if isinstance(conjunct, Between):
                shapes.add("watermark BETWEEN window")
            elif isinstance(conjunct, InList) and conjunct.operand.name == "optype":
                shapes.add("multi-operation NOT IN" if conjunct.negate else "multi-operation IN")
            elif isinstance(conjunct, InList):
                shapes.add("entity-id IN constraint")
    return shapes or {"plain pattern"}


def _graph_shapes(pattern: PathPattern) -> set[str]:
    return {"variable-length path" if pattern.max_length > 1 else "single-hop graph pattern"}


def _path_set(paths: Iterable[Any]) -> set[tuple[Any, Any]]:
    return {(path.node_ids(), path.edge_ids()) for path in paths}


class DataQueryRecorder:
    """Records a store's data queries and replays each on the oracles.

    Install it before the store receives data: the sqlite oracle is topped up
    from the store's tables before each replay, and the reference executor
    reads those tables directly.
    """

    def __init__(self, store: AuditStore, monkeypatch: pytest.MonkeyPatch) -> None:
        self.records: list[RecordedQuery] = []
        self._store = store
        self._sqlite = SqliteRelationalDatabase()
        self._copied = {"entities": 0, "events": 0}
        engine_execute = store.relational.execute
        engine_match = CostGuidedPathMatcher.match

        def execute(query: SelectQuery) -> QueryResult:
            result = engine_execute(query)
            self._top_up_sqlite()
            tables = {name: store.relational.table(name) for name in self._copied}
            self.records.append(
                RecordedQuery(
                    query=query,
                    shapes=_relational_shapes(query),
                    engine=Counter(result.rows),
                    oracles={
                        "reference": Counter(ReferenceQueryExecutor(tables).execute(query).rows),
                        "sqlite": Counter(self._sqlite.execute(query).rows),
                    },
                )
            )
            return result

        def match(matcher: CostGuidedPathMatcher, pattern: PathPattern) -> Iterator[Any]:
            paths = list(engine_match(matcher, pattern))
            self.records.append(
                RecordedQuery(
                    query=pattern,
                    shapes=_graph_shapes(pattern),
                    engine=_path_set(paths),
                    oracles={"dfs": _path_set(PathMatcher(store.graph).match(pattern))},
                )
            )
            return iter(paths)

        monkeypatch.setattr(store.relational, "execute", execute)
        monkeypatch.setattr(CostGuidedPathMatcher, "match", match)

    def _top_up_sqlite(self) -> None:
        for name, copied in self._copied.items():
            table = self._store.relational.table(name)
            if len(table) > copied:
                self._sqlite.insert_rows(name, table.rows_at(range(copied, len(table))))
                self._copied[name] = len(table)

    def divergences(self) -> list[str]:
        """One line per (query, oracle) whose answer differs from the engine's."""
        return [
            f"{oracle} disagrees with the engine on {sorted(record.shapes)}: {record.query!r}"
            for record in self.records
            for oracle, answer in record.oracles.items()
            if answer != record.engine
        ]


def _probes(campaign: GeneratedCampaign) -> dict[str, str]:
    """Queries for the shapes the campaign's own chain hunts do not emit."""
    spec = campaign.spec
    return {
        "multi-op": (
            f'proc d["%{spec.downloader}%"] write || read file t["%{spec.tool_path}%"] as m1\n'
            "return d, t"
        ),
        "negated-op": f'proc d["%{spec.downloader}%"] not read file t as n1\nreturn d, t',
        "path": (
            f'proc s["%{spec.shell}%"] ~>(1~3)[write] file f["%{spec.tool_path}%"] as v1\n'
            "return distinct s, f"
        ),
    }


def _record_campaign(campaign: GeneratedCampaign) -> list[RecordedQuery]:
    """Run the campaign's hunts ad-hoc on ``auto`` and ``graph``, then streamed."""
    hunts = {hunt.name: hunt.query_text for hunt in campaign.hunts}
    probes = _probes(campaign)

    def adhoc(raptor: ThreatRaptor, queries: dict[str, str]) -> None:
        raptor.load_trace(campaign.trace)
        for name, text in queries.items():
            assert len(raptor.execute_query(text)) >= 1, f"{name} matched nothing"

    def streamed(raptor: ThreatRaptor, queries: dict[str, str]) -> None:
        service = raptor.watch(batch_size=32)
        for name, text in queries.items():
            service.register_hunt(name, query=text)
        service.run(ReplaySource(campaign.trace))
        for hunt in campaign.hunts:
            assert service.matched_event_ids(hunt.name) == hunt.expected_event_ids

    records: list[RecordedQuery] = []
    for backend, drive, queries in (
        ("auto", adhoc, {**hunts, **probes}),
        ("graph", adhoc, {**hunts, **probes}),
        ("auto", streamed, {**hunts, "path": probes["path"]}),
    ):
        with pytest.MonkeyPatch.context() as patch:
            raptor = ThreatRaptor(ThreatRaptorConfig(execution_backend=backend))
            recorder = DataQueryRecorder(raptor.store, patch)
            drive(raptor, queries)
        assert recorder.divergences() == []
        records.extend(recorder.records)
    return records


@pytest.fixture(scope="module")
def campaigns() -> list[GeneratedCampaign]:
    return generate_campaigns(CAMPAIGN_COUNT, base_seed=1200)


@pytest.mark.parametrize("index", range(CAMPAIGN_COUNT))
def test_every_data_query_agrees_with_its_oracles(campaigns, index):
    records = _record_campaign(campaigns[index])
    assert {shape for record in records for shape in record.shapes} == SHAPES
    # Not vacuous: each oracle returned rows/paths for some query.
    for oracle in ("reference", "sqlite", "dfs"):
        assert any(record.oracles.get(oracle) for record in records), oracle


class TestDivergenceIsDetected:
    """A perturbed oracle answer (or engine answer) must fail the comparison."""

    @pytest.fixture
    def recorder(self, campaigns, monkeypatch):
        campaign = campaigns[0]
        raptor = ThreatRaptor()
        recorder = DataQueryRecorder(raptor.store, monkeypatch)
        raptor.load_trace(campaign.trace)
        for text in (campaign.hunts[0].query_text, _probes(campaign)["path"]):
            raptor.execute_query(text)
        assert recorder.divergences() == []
        return recorder

    @pytest.mark.parametrize("oracle", ["reference", "sqlite", "dfs"])
    def test_perturbed_oracle_answer_is_reported(self, recorder, oracle):
        record = next(r for r in recorder.records if r.oracles.get(oracle))
        answer = record.oracles[oracle]
        if isinstance(answer, Counter):
            answer[next(iter(answer))] += 1  # one duplicated row
        else:
            answer.pop()  # one missing path
        problems = recorder.divergences()
        assert len(problems) == 1
        assert problems[0].startswith(f"{oracle} disagrees")
