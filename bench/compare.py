"""``python3 -m bench compare A.json B.json``: B against its base A, metric by metric.

One row per (workload, end-to-end metric): both medians with their spread,
the ratio B/A, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``incomparable`` — the two runs did not measure the same inputs;
* ``unresolved`` — a side's run-to-run spread is wider than the bound, so the
  bound cannot be checked;
* ``worse`` / ``better`` — B's median differs from A's by more than the bound;
* ``same`` — within the bound.

Exit status 1 on any ``worse`` row or when B failed more operations than A.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any

from bench.catalogue import ROOT, Catalogue


def verdict(
    base: dict[str, Any], change: dict[str, Any], bound: float, higher_is_better: bool
) -> str:
    """Classify one metric's change against its bound."""
    if max(base["spread"], change["spread"]) > bound:
        return "unresolved"
    if base["median"] == 0:
        return "same" if change["median"] == 0 else "unresolved"
    shift = (change["median"] - base["median"]) / abs(base["median"])
    worsening = -shift if higher_is_better else shift
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(base: dict[str, Any], change: dict[str, Any], catalogue: Catalogue) -> list[list[str]]:
    """The comparison table, header row first."""
    rows = [
        ["workload", "metric", "unit", "A median", "A spread", "B median", "B spread",
         "B/A", "bound", "verdict"]
    ]  # fmt: skip
    for workload in catalogue.workloads:
        ours = base["workloads"].get(workload)
        theirs = change["workloads"].get(workload)
        if ours is None or theirs is None:
            continue
        comparable = ours["input_sha256"] == theirs["input_sha256"]
        for name, unit in catalogue.end_to_end.items():
            a, b = ours["end_to_end"][name], theirs["end_to_end"][name]
            bound = catalogue.bounds[name]
            outcome = (
                verdict(a, b, bound, catalogue.higher_is_better[name])
                if comparable
                else "incomparable"
            )
            ratio = f"{b['median'] / a['median']:.3f}" if a["median"] else "-"
            rows.append(
                [workload, name, unit, f"{a['median']:.4f}", f"{a['spread']:.3f}",
                 f"{b['median']:.4f}", f"{b['spread']:.3f}", ratio, f"{bound:.2f}", outcome]
            )  # fmt: skip
        more_failed = theirs["failed"] * ours["attempted"] > ours["failed"] * theirs["attempted"]
        rows.append(
            [workload, "failed/attempted", "count", f"{ours['failed']}/{ours['attempted']}", "",
             f"{theirs['failed']}/{theirs['attempted']}", "", "", "0",
             "worse" if more_failed else "same"]
        )  # fmt: skip
    return rows


def render(rows: list[list[str]]) -> str:
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    )


def main(argv: list[str]) -> int:
    cli = argparse.ArgumentParser(prog="python3 -m bench compare", description=__doc__)
    cli.add_argument("base", type=Path, help="result file A (the base of every ratio)")
    cli.add_argument("change", type=Path, help="result file B")
    cli.add_argument("--out", type=Path, help="also write the table here (default bench/out/)")
    args = cli.parse_args(argv)
    rows = compare(
        json.loads(args.base.read_text("utf-8")),
        json.loads(args.change.read_text("utf-8")),
        Catalogue.load(),
    )
    table = render(rows)
    print(table)
    out = args.out
    if out is None:
        (ROOT / "bench" / "out").mkdir(parents=True, exist_ok=True)
        out = ROOT / "bench" / "out" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.txt"
    out.write_text(table + "\n", encoding="utf-8")
    return 1 if any(row[-1] == "worse" for row in rows[1:]) else 0
