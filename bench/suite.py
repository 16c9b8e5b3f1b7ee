"""Every workload, several fresh processes each, plus one traced run: one result file.

The suite only orchestrates: each run is ``python3 -m bench --workload ...``
in its own process, so no run inherits another's heap, caches or hash seed.
Results go to standard output and to a file under the git-ignored
``bench/out/``; the harness never writes a tracked file.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from bench import stats
from bench.catalogue import ROOT, Catalogue

#: ``--check`` sizes: a twentieth of the inputs, one measured second.
CHECK_SCALE = 0.05
CHECK_SECONDS = 1.0


def run_child(
    workload: str, seed: int, seconds: float, trace: bool, scale: float
) -> dict[str, Any]:
    """One run in a fresh process; returns its full record.

    Raises:
        RuntimeError: when the child fails or its last line is not the result.
    """
    with tempfile.TemporaryDirectory(dir=_out_dir()) as scratch:
        detail = Path(scratch) / "detail.json"
        command = [
            sys.executable, "-m", "bench",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--scale", str(scale), "--detail", str(detail),
        ]  # fmt: skip
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not detail.exists():
            raise RuntimeError(f"{workload}: run exited with code {child.returncode}")
        record: dict[str, Any] = json.loads(detail.read_text("utf-8"))
    printed = json.loads(child.stdout.strip().splitlines()[-1])
    if set(printed) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: result line has keys {sorted(printed)}")
    return record


def _out_dir() -> Path:
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out


def summarize(values: list[float]) -> dict[str, Any]:
    return {
        "values": values,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "spread": stats.spread(values),
    }


def suite(seed: int, seconds: float, runs: int, out: Path | None, scale: float = 1.0) -> int:
    """Run everything, print every metric by name with its unit, write the result file."""
    catalogue = Catalogue.load()
    result: dict[str, Any] = {
        "meta": {
            "seed": seed,
            "seconds": seconds,
            "runs": runs,
            "scale": scale,
            "python": platform.python_version(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "workloads": {},
    }
    healthy = True
    for workload in catalogue.workloads:
        records = [run_child(workload, seed, seconds, False, scale) for _ in range(runs)]
        traced = run_child(workload, seed, seconds, True, scale)
        fingerprints = {record["input_sha256"] for record in (*records, traced)}
        entry = {
            "input_sha256": records[0]["input_sha256"],
            "correct": all(r["correct"] for r in (*records, traced)) and len(fingerprints) == 1,
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "problems": sorted({p for r in (*records, traced) for p in r["problems"]}),
            "end_to_end": {
                name: {
                    "unit": unit,
                    **summarize([r["metrics"][name]["value"] for r in records]),
                }
                for name, unit in catalogue.end_to_end.items()
            },
            "per_layer": {
                name: {"unit": unit, "value": traced["metrics"][name]["value"]}
                for name, unit in catalogue.per_layer.items()
            },
            "spans_missing": traced["spans_missing"],
        }
        result["workloads"][workload] = entry
        healthy = healthy and entry["correct"]
        print(render(workload, entry), flush=True)

    path = out or _out_dir() / f"result-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {path}")
    return 0 if healthy else 1


def render(workload: str, entry: dict[str, Any]) -> str:
    """One workload's metrics as text: end to end first, then the layers that did work."""
    verdict = "correct" if entry["correct"] else "INCORRECT"
    lines = [
        f"== {workload}: {verdict}, {entry['failed']} failed of {entry['attempted']} operations,"
        f" inputs {entry['input_sha256'][:12]}",
        f"  {'end-to-end metric':<36}{'median':>14} {'unit':<6}{'min':>14}{'max':>14}{'spread':>8}",
    ]
    for name, metric in entry["end_to_end"].items():
        lines.append(
            f"  {name:<36}{metric['median']:>14.4f} {metric['unit']:<6}"
            f"{metric['min']:>14.4f}{metric['max']:>14.4f}{metric['spread']:>8.3f}"
        )
    lines.append(f"  {'per-layer metric (traced run)':<48}{'value':>14} unit")
    for name, metric in entry["per_layer"].items():
        if metric["value"]:
            lines.append(f"  {name:<48}{metric['value']:>14.4f} {metric['unit']}")
    if entry["spans_missing"]:
        lines.append(f"  spans missing: {', '.join(entry['spans_missing'])}")
    for problem in entry["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)


def check(seed: int) -> int:
    """Every workload small, traced and untraced: outputs and schema, no timing claim."""
    catalogue = Catalogue.load()
    failures: list[str] = []
    for workload in catalogue.workloads:
        for trace, declared in ((False, catalogue.end_to_end), (True, catalogue.per_layer)):
            record = run_child(workload, seed, CHECK_SECONDS, trace, CHECK_SCALE)
            label = f"{workload} --trace {int(trace)}"
            if not record["correct"] or record["failed"] or record["attempted"] < 1:
                failures.append(f"{label}: {record['failed']} failed, {record['problems']}")
            if {m: v["unit"] for m, v in record["metrics"].items()} != declared:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) for v in record["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            if not trace and not all(v["value"] > 0 for v in record["metrics"].values()):
                failures.append(f"{label}: an end-to-end metric is not positive")
            if trace and record["spans_missing"]:
                failures.append(f"{label}: spans missing {record['spans_missing']}")
            print(f"checked {label}: {record['attempted']} operations", flush=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print("check failed" if failures else "check passed")
    return 1 if failures else 0
