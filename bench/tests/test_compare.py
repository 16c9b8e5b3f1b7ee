"""Verdicts of ``python3 -m bench compare``."""

from __future__ import annotations

import copy

from bench.catalogue import Catalogue
from bench.compare import compare, verdict


def metric(median: float, spread: float = 0.01) -> dict:
    return {"median": median, "spread": spread}


def test_verdicts_follow_direction_bound_and_spread():
    assert verdict(metric(100), metric(105), 0.10, higher_is_better=False) == "same"
    assert verdict(metric(100), metric(111), 0.10, higher_is_better=False) == "worse"
    assert verdict(metric(100), metric(89), 0.10, higher_is_better=False) == "better"
    assert verdict(metric(100), metric(89), 0.10, higher_is_better=True) == "worse"
    assert verdict(metric(100), metric(111), 0.10, higher_is_better=True) == "better"
    assert verdict(metric(100, 0.2), metric(150), 0.10, higher_is_better=False) == "unresolved"


def result(catalogue: Catalogue, value: float, sha: str = "a", failed: int = 0) -> dict:
    entry = {
        "input_sha256": sha,
        "attempted": 100,
        "failed": failed,
        "end_to_end": {name: metric(value) for name in catalogue.end_to_end},
    }
    return {"workloads": {name: copy.deepcopy(entry) for name in catalogue.workloads}}


def test_table_has_a_row_per_workload_and_metric():
    catalogue = Catalogue.load()
    rows = compare(result(catalogue, 10.0), result(catalogue, 10.0), catalogue)
    body = rows[1:]
    assert len(body) == len(catalogue.workloads) * (len(catalogue.end_to_end) + 1)
    assert {row[-1] for row in body} == {"same"}


def test_other_inputs_are_incomparable_and_more_failures_are_worse():
    catalogue = Catalogue.load()
    rows = compare(result(catalogue, 10.0), result(catalogue, 99.0, sha="b"), catalogue)
    assert {row[-1] for row in rows[1:] if row[1] != "failed/attempted"} == {"incomparable"}
    rows = compare(result(catalogue, 10.0), result(catalogue, 10.0, failed=1), catalogue)
    assert [row[-1] for row in rows[1:] if row[1] == "failed/attempted"] == ["worse"] * len(
        catalogue.workloads
    )
