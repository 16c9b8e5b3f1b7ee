"""``BENCHMARK.json`` against the benchmark contract and against the code."""

from __future__ import annotations

import json
import re

from bench.catalogue import ROOT, Catalogue
from bench.layers import SPANS, per_layer_names
from bench.trace import resolve
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_keys_and_limits():
    raw = declared()
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert raw["paths"] == ["bench"]
    assert raw["command"] == ["python3", "-m", "bench"]
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    names = []
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in (*raw["end_to_end"], *raw["per_layer"]):
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(metric for metric in raw["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in raw["end_to_end"])


def test_catalogue_matches_the_code():
    catalogue = Catalogue.load()
    assert list(catalogue.workloads) == list(WORKLOADS)
    assert list(catalogue.per_layer) == per_layer_names()


def test_every_traced_name_resolves_on_this_commit():
    for spec in SPANS:
        for target in spec.targets:
            owner, method = resolve(target)
            assert callable(getattr(owner, method))
