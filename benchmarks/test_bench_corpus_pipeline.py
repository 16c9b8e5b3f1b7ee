"""EXP-CORPUS — corpus-scale OSCTI intelligence throughput and dedup.

The ``repro.intel`` subsystem turns a whole corpus of overlapping OSCTI
reports into a minimal set of standing hunts.  This benchmark measures the
**plan-cache dedup hit rate** — the fraction of hunted reports whose
canonical synthesized query collided with an already-planned one and
therefore shares a single ``PreparedQuery`` standing hunt instead of
registering its own — together with end-to-end registration throughput.

Results are appended to ``BENCH_results.json`` via the shared recorder, so
future PRs have a trajectory to compare against.  Size via
``CORPUS_BENCH_REPORTS`` (default 48).
"""

from __future__ import annotations

import os
import time

from repro.core.pipeline import ThreatRaptor
from repro.intel.corpus import ReportCorpus

REPORT_COUNT = int(os.environ.get("CORPUS_BENCH_REPORTS", "48"))

_CORPUS = ReportCorpus.variants(REPORT_COUNT, seed=31)


def test_bench_corpus_hunt_dedup(bench_results):
    """Plan-cache dedup: overlapping reports collapse onto few standing hunts."""
    raptor = ThreatRaptor()
    started = time.perf_counter()
    result = raptor.hunt_corpus(_CORPUS)
    seconds = time.perf_counter() - started
    summary = result.summary()

    hunted = summary["hunted_reports"]
    assert hunted >= min(20, REPORT_COUNT)
    # The acceptance bar: strictly fewer standing hunts than reports.
    assert summary["hunts"] < hunted

    entry = bench_results.record(
        "corpus-hunt-dedup",
        reports=summary["reports"],
        hunted_reports=hunted,
        hunts_registered=summary["hunts_registered"],
        plan_cache_dedup_hit_rate=summary["dedup_ratio"],
        register_seconds=round(seconds, 6),
        reports_per_second=round(summary["reports"] / seconds, 2),
    )
    print(f"\n[EXP-CORPUS] hunt dedup: {entry}")
