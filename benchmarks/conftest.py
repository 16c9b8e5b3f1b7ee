"""Shared fixtures for the benchmark harness.

Each benchmark module reproduces one experiment from DESIGN.md's per-experiment
index.  The fixtures here build the simulated audit datasets once per session
so individual benchmarks measure query/extraction work, not data generation.
"""

from __future__ import annotations

import json
import subprocess
import time
import uuid
from pathlib import Path
from typing import Any

import pytest

from repro.auditing.workload.attacks import (
    DataLeakageAttack,
    Figure2DataLeakageChain,
    PasswordCrackingAttack,
)
from repro.auditing.workload.benign import NoisyFileServerWorkload
from repro.auditing.workload.generator import HostSimulator, SimulationResult
from repro.storage.loader import AuditStore


def build_simulation(scale: float, seed: int = 29) -> SimulationResult:
    """A demo-style host (benign mix + both demo attacks) at a given scale."""
    simulator = (
        HostSimulator(seed=seed, benign_scale=scale)
        .add_default_benign()
        .add_attack(PasswordCrackingAttack())
        .add_attack(DataLeakageAttack())
        .add_attack(Figure2DataLeakageChain())
    )
    simulator.add_benign(
        NoisyFileServerWorkload(
            sessions=max(2, int(6 * scale)), operations_per_session=max(10, int(60 * scale))
        )
    )
    return simulator.run()


def build_store(simulation: SimulationResult, apply_reduction: bool = True) -> AuditStore:
    """Load a simulation into a fresh audit store."""
    store = AuditStore(apply_reduction=apply_reduction)
    store.load_trace(simulation.trace)
    return store


#: Machine-readable benchmark timings accumulate here, one JSON entry per
#: recorded measurement, so future PRs have a perf trajectory to compare
#: against.  The file lives at the repo root next to ROADMAP.md.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


def _current_git_sha() -> str | None:
    """The working tree's commit SHA, or ``None`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


class BenchResultsRecorder:
    """Appends machine-readable benchmark timings to ``BENCH_results.json``.

    Each recorded entry is a flat JSON object with at least ``benchmark`` (a
    stable name), ``recorded_at`` (ISO timestamp), ``run_id`` (one random id
    shared by every record of a recorder session, so one run's records can be
    told apart from re-runs), ``git_sha`` (the commit measured, ``None``
    outside a git checkout) and whatever numeric fields the benchmark passes
    (seconds, event counts, speedup ratios).  Entries from earlier runs are
    preserved: the file is a JSON array that only ever grows, so it doubles
    as the perf trajectory across PRs.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._entries: list[dict[str, Any]] = []
        self.run_id = uuid.uuid4().hex[:12]
        self.git_sha = _current_git_sha()

    def record(self, benchmark: str, **fields: Any) -> dict[str, Any]:
        """Queue one measurement for writing at session teardown."""
        entry: dict[str, Any] = {
            "benchmark": benchmark,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "run_id": self.run_id,
            "git_sha": self.git_sha,
        }
        entry.update(fields)
        self._entries.append(entry)
        return entry

    def flush(self) -> None:
        """Append queued entries to the results file (creating it if needed)."""
        if not self._entries:
            return
        existing: list[dict[str, Any]] = []
        if self._path.exists():
            try:
                loaded = json.loads(self._path.read_text(encoding="utf-8"))
                if isinstance(loaded, list):
                    existing = loaded
            except (OSError, json.JSONDecodeError):
                existing = []
        existing.extend(self._entries)
        self._path.write_text(
            json.dumps(existing, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
        self._entries = []


@pytest.fixture(scope="session")
def bench_results() -> BenchResultsRecorder:
    """Session-wide recorder appending timings to ``BENCH_results.json``."""
    recorder = BenchResultsRecorder(BENCH_RESULTS_PATH)
    yield recorder
    recorder.flush()


@pytest.fixture(scope="session")
def small_simulation() -> SimulationResult:
    """~10k events."""
    return build_simulation(scale=2.0)


@pytest.fixture(scope="session")
def large_simulation() -> SimulationResult:
    """~40-60k events."""
    return build_simulation(scale=10.0)


@pytest.fixture(scope="session")
def small_store(small_simulation) -> AuditStore:
    return build_store(small_simulation)

