"""One run of one workload in this process: set up, warm up, measure, check, print.

The last line of standard output is the result object the benchmark contract
asks for: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` when tracing is off, every per-layer
metric when it is on.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.evaluation import PrecisionRecall

from bench import inputs, stats
from bench.catalogue import ROOT, Catalogue
from bench.layers import QUERY_TYPES, SPANS
from bench.trace import Tracer, summarize
from bench.workloads import WORKLOADS, Recorder, Workload


def measure(workload: Workload, seconds: float = 0.0, cycles: int = 1) -> Recorder:
    """Run cycles until ``seconds`` have passed and at least ``cycles`` are done."""
    rec = workload.rec = Recorder()
    gc.collect()
    started = time.perf_counter()
    while len(rec.cycle_keys) < cycles or time.perf_counter() - started < seconds:
        rec.cycle_starts.append(len(rec.latencies))
        rec.cycle_keys.append(workload.cycle())
    return rec


@contextmanager
def spans_on(workload: Workload, tracer: Tracer | None) -> Iterator[None]:
    """Wrap the layer methods for the ``with`` body; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install(SPANS)
    workload.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        workload.tracer = None


def end_to_end(workload: Workload, rec: Recorder, setup_times: list[float]) -> dict[str, float]:
    cycles = rec.cycles()
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1e3
        * stats.steady(((key, statistics.median(ops)) for key, ops in cycles), False),
        "ops_per_s": stats.steady(((key, len(ops) / sum(ops)) for key, ops in cycles), True),
        "load_events_per_s": stats.steady(workload.load_rates(), True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Micro-averaged: counts pooled over every scored hunt, then one F1.
        "hunt_f1": PrecisionRecall(*map(sum, zip(*workload.f1_counts))).f1,
    }


def per_layer(
    workload: Workload, tracer: Tracer, traced: Recorder, untraced: Recorder
) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, triple in summarize(tracer.spans).items():
        for part, value in triple.items():
            values[f"{name}.{part}"] = value
    values.update(tracer.counts)
    values.update(workload.counters)
    for query, latencies in untraced.by_label().items():
        if query in QUERY_TYPES:
            values[f"query.{query}.p50_ms"] = statistics.median(latencies) * 1e3
    values["op.count"] = float(len(untraced.latencies))
    if stats.supported(95.0, len(untraced.latencies)):
        values["op.p95_ms"] = stats.percentile(untraced.latencies, 95.0) * 1e3
    # Mean operation time with spans on over the same with spans off, each
    # taken per cycle and steadied like the end-to-end metrics.
    plain, spanned = (
        stats.steady(((key, sum(ops) / len(ops)) for key, ops in rec.cycles()), False)
        for rec in (untraced, traced)
    )
    values["bench.trace.overhead_pct"] = (spanned / plain - 1.0) * 100.0
    values["bench.trace.spans_missing"] = float(len(tracer.missing))
    return values


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    detail: Path | None = None,
) -> int:
    """Run one workload and print its result line; returns the exit code."""
    catalogue = Catalogue.load()
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    tempfile.tempdir = str(workdir)  # nothing the program writes leaves the checkout
    workload = WORKLOADS[name](seed, scale, workdir)
    tracer = Tracer() if trace else None
    try:
        setup_times: list[float] = []
        for repeat in range(workload.setup_repeats):
            # A traced run records the layers beneath the last set-up too.
            last = repeat == workload.setup_repeats - 1
            with spans_on(workload, tracer if last else None):
                gc.collect()
                started = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - started)
        sha256 = inputs.fingerprint(workload.input_parts())
        workload.warm_up()

        if tracer is None:
            rec = measure(workload, seconds)
            metrics = end_to_end(workload, rec, setup_times)
            declared = catalogue.end_to_end
            attempted, failed = rec.attempted, rec.failed
        else:
            untraced = measure(workload, seconds / 2)
            with spans_on(workload, tracer):
                traced = measure(workload, cycles=workload.traced_cycles)
            metrics = per_layer(workload, tracer, traced, untraced)
            declared = catalogue.per_layer
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        workload.problems.append(f"metrics not in BENCHMARK.json: {undeclared}")
    result: dict[str, Any] = {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics.get(metric, 0.0), "unit": unit}
            for metric, unit in declared.items()
        },
    }
    if detail is not None:
        record = dict(result)
        record.update(
            workload=name,
            seed=seed,
            scale=scale,
            seconds=seconds,
            trace=trace,
            input_sha256=sha256,
            setup_times=setup_times,
            load_rates=workload.load_rates(),
            latencies=workload.rec.latencies,
            labels=workload.rec.labels,
            cycle_starts=workload.rec.cycle_starts,
            cycle_keys=workload.rec.cycle_keys,
            problems=workload.problems,
        )
        if tracer is not None:
            record["spans_missing"] = tracer.missing
            record["spans"] = [
                [span.name, span.start, span.end, span.parent, span.op] for span in tracer.spans
            ]
        detail.write_text(json.dumps(record), encoding="utf-8")
    for problem in workload.problems:
        print(f"[{name}] {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0
