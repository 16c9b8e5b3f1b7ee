"""``BENCHMARK.json`` is the single catalogue of workloads and metrics; this reads it."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: The checkout: ``bench/`` sits beside ``BENCHMARK.json`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Catalogue:
    """The declared workloads and metrics.

    Attributes:
        workloads: name -> why it was chosen.
        end_to_end: name -> unit, for the metrics a run without spans prints.
        per_layer: name -> unit, for the metrics a run with spans prints.
        bounds: end-to-end name -> share of the parent's median it may worsen by.
        higher_is_better: end-to-end name -> direction.
        run_seconds: how long one run measures.
    """

    workloads: dict[str, str]
    end_to_end: dict[str, str]
    per_layer: dict[str, str]
    bounds: dict[str, float]
    higher_is_better: dict[str, bool]
    run_seconds: int

    @classmethod
    def load(cls, path: Path | None = None) -> "Catalogue":
        raw: dict[str, Any] = json.loads((path or ROOT / "BENCHMARK.json").read_text("utf-8"))
        end_to_end = raw["end_to_end"]
        return cls(
            workloads={entry["name"]: entry["why"] for entry in raw["workloads"]},
            end_to_end={entry["name"]: entry["unit"] for entry in end_to_end},
            per_layer={entry["name"]: entry["unit"] for entry in raw["per_layer"]},
            bounds={entry["name"]: float(entry["bound"]) for entry in end_to_end},
            higher_is_better={entry["name"]: entry["better"] == "higher" for entry in end_to_end},
            run_seconds=int(raw["run_seconds"]),
        )
