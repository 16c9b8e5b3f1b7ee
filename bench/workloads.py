"""The five workloads.

Each drives the system through its public API in the default configuration
(vectorized executor, planner matcher, ``backend="auto"``,
``analysis_mode="enforce"``, one shard), one thread, closed loop with one
caller: the library is synchronous, so completed work per second is the
sustainable rate.

A workload is set up several times per run (the median is ``setup_s``),
warmed up once, then asked for *cycles* — its fixed unit of work — until the
run's seconds are spent.  Every operation's output is checked right after it
is timed; the check is the benchmark's own cost and is never inside a timed
interval.
"""

from __future__ import annotations

import gc
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import ThreatRaptor, ThreatRaptorConfig
from repro.data.osctireports import auditable_reports
from repro.evaluation import score_hunting
from repro.intel import ReportCorpus
from repro.streaming import ReplaySource, iter_batches

from bench import inputs
from bench.trace import Tracer

#: Sizes at ``--scale 1``.  Chosen so that three set-ups, a warm-up and the
#: timed seconds of one run stay near 20 s on two cores (see README).
INTEL_HOST_SCALE = 2.0
INTEL_REPORTS = 8000
INTEL_CHUNK = 50
INGEST_HOST_SCALE = 5.0
CAMPAIGN_NOISE = 33.0
STREAM_BATCH = 256
STANDING_NOISE = 16.0
STANDING_STREAMS = 8
STANDING_CORPUS = 48

F1Counts = tuple[int, int, int]


class Recorder:
    """What one measured phase saw."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.labels: list[str] = []
        #: Index into ``latencies`` where each cycle starts, and the input
        #: variant (see :meth:`Workload.cycle`) that cycle ran on.
        self.cycle_starts: list[int] = []
        self.cycle_keys: list[int] = []
        #: ``(input variant, events per second)`` of each timed load.
        self.load_rates: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0

    def cycles(self) -> list[tuple[int, list[float]]]:
        """``(input variant, operation latencies)`` of each cycle."""
        bounds = [*self.cycle_starts, len(self.latencies)]
        return [
            (key, self.latencies[low:high])
            for key, low, high in zip(self.cycle_keys, bounds, bounds[1:])
            if high > low
        ]

    def by_label(self) -> dict[str, list[float]]:
        grouped: dict[str, list[float]] = {}
        for label, latency in zip(self.labels, self.latencies):
            grouped.setdefault(label, []).append(latency)
        return grouped


class Workload:
    """Base class: set-up, warm-up, cycles, and the timed-operation helper."""

    name = ""
    setup_repeats = 3
    #: Cycles of the traced phase: fixed work, so counts repeat exactly.
    traced_cycles = 1

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.rec = Recorder()
        #: Load rates measured during set-up (workloads whose loading is set-up).
        self.setup_load_rates: list[tuple[int, float]] = []
        self.f1_counts: list[F1Counts] = []
        #: Workload-level invariants that failed (empty on a correct run).
        self.problems: list[str] = []
        #: Counters the workload adds to a traced run.
        self.counters: dict[str, float] = {}

    # -- protocol ------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs and prepare everything the cycles need."""
        raise NotImplementedError

    def input_parts(self) -> Iterable[str]:
        """The serialized inputs the fingerprint covers."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed: fill caches and pin the outputs later operations must repeat."""
        raise NotImplementedError

    def cycle(self) -> int:
        """One fixed unit of timed work; returns the input variant it ran on.

        A workload whose cost depends on the shape of its generated input
        draws several inputs from the seed and cycles through them; cycles on
        the same variant are comparable with each other, cycles on different
        variants are not.  Single-input workloads return 0.
        """
        raise NotImplementedError

    def load_rates(self) -> list[tuple[int, float]]:
        """Samples behind ``load_events_per_s``: timed loads, else set-up loads."""
        return self.rec.load_rates or self.setup_load_rates

    def close(self) -> None:
        """Release what the workload holds outside the Python heap."""

    # -- helpers -------------------------------------------------------------

    def op(self, label: str, call: Callable[[], Any], check: Callable[[Any], bool]) -> Any:
        """Time one operation, then check its output; returns the output."""
        rec = self.rec
        rec.attempted += 1
        if self.tracer is not None:
            self.tracer.next_op()
        try:
            result, elapsed = self.timed("facade", call)
        except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
            self._failed(label, traceback.format_exc())
            return None
        rec.latencies.append(elapsed)
        rec.labels.append(label)
        if not check(result):
            self._failed(label, "output check failed")
        return result

    def _failed(self, label: str, reason: str) -> None:
        if not self.rec.failed:
            print(f"[{self.name}] first failed operation ({label}): {reason}", file=sys.stderr)
        self.rec.failed += 1

    def timed(self, span: str, call: Callable[[], Any]) -> tuple[Any, float]:
        """Time a call the benchmark itself is the boundary of (a span when tracing)."""
        if self.tracer is None:
            start = time.perf_counter()
            result = call()
            return result, time.perf_counter() - start
        with self.tracer.span(span) as recorded:
            result = call()
        return result, recorded.duration

    def unrecorded(self) -> Any:
        """Context for the benchmark's own checks and preparation between operations."""
        return self.tracer.pause() if self.tracer is not None else nullcontext()

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def scaled(self, size: float, floor: float) -> float:
        return max(floor, size * self.scale)


def _f1_counts(matched: Iterable[int], truth: Iterable[int]) -> F1Counts:
    score = score_hunting(matched, truth)
    return score.true_positives, score.false_positives, score.false_negatives


# ---------------------------------------------------------------------------
# intel_corpus
# ---------------------------------------------------------------------------


class IntelCorpus(Workload):
    name = "intel_corpus"
    setup_repeats = 7  # the store is small; more repeats steady a 0.1 s load
    traced_cycles = 8

    def setup(self) -> None:
        self.raptor = None  # one store at a time, or peak_rss_mb counts two
        simulation = inputs.demo_host(self.seed, self.scaled(INTEL_HOST_SCALE, 0.25))
        self.truth = inputs.demo_truth(simulation)
        self.reports = inputs.report_stream(self.seed, int(self.scaled(INTEL_REPORTS, 200)))
        self.cursor = 0
        self.raptor = ThreatRaptor()
        _, seconds = self.timed("facade", lambda: self.raptor.load_trace(simulation.trace))
        self.setup_load_rates.append((0, len(simulation.trace.events) / seconds))
        self.trace = simulation.trace

    def input_parts(self) -> Iterable[str]:
        yield from inputs.trace_lines(self.trace)
        for case in self.reports:
            yield case.text

    def warm_up(self) -> None:
        self.pinned: dict[str, tuple[frozenset[int], tuple[int, int, int]]] = {}
        for report in auditable_reports():
            hunt = self.raptor.hunt(report.text)
            summary = hunt.summary()
            shape = (summary["iocs"], summary["behavior_edges"], summary["query_patterns"])
            matched = frozenset(hunt.result.all_matched_event_ids())
            self.pinned[report.name] = (matched, shape)
            self.f1_counts.append(_f1_counts(matched, self.truth[report.name]))

    def cycle(self) -> int:
        raptor = self.raptor
        for _ in range(INTEL_CHUNK):
            case = self.reports[self.cursor % len(self.reports)]
            self.cursor += 1
            matched, shape = self.pinned[case.base]
            if case.rotated:
                self.op(
                    "rotated",
                    lambda: raptor.hunt(case.text),
                    lambda hunt: len(hunt.result) == 0 and _shape(hunt) == shape,
                )
            else:
                self.op(
                    "variant",
                    lambda: raptor.hunt(case.text),
                    lambda hunt: hunt.result.all_matched_event_ids() == matched,
                )
        return 0


def _shape(hunt: Any) -> tuple[int, int, int]:
    summary = hunt.summary()
    return summary["iocs"], summary["behavior_edges"], summary["query_patterns"]


# ---------------------------------------------------------------------------
# audit_ingest
# ---------------------------------------------------------------------------


class AuditIngest(Workload):
    name = "audit_ingest"
    setup_repeats = 5
    traced_cycles = 4

    def setup(self) -> None:
        simulation = inputs.demo_host(self.seed, self.scaled(INGEST_HOST_SCALE, 0.5))
        self.truth = inputs.demo_truth(simulation)
        self.text, self.records = inputs.log_text(simulation.trace)

    def input_parts(self) -> Iterable[str]:
        yield self.text

    def warm_up(self) -> None:
        raptor = ThreatRaptor()
        report = raptor.load_log(io.StringIO(self.text), inputs.HOST)
        self.pinned_rows = dict(report.relational_rows)
        self.pinned_reduction = report.reduction
        self.require(
            report.reduction is not None and report.reduction.events_before == self.records,
            "reduction saw a different number of events than the log holds",
        )
        self.pinned_hunts = {}
        for report_text in auditable_reports():
            if self.truth[report_text.name]:
                matched = frozenset(raptor.hunt(report_text.text).result.all_matched_event_ids())
                self.pinned_hunts[report_text.name] = matched
                self.f1_counts.append(_f1_counts(matched, self.truth[report_text.name]))

    def cycle(self) -> int:
        self.raptor = None  # drop the previous store before building the next
        stream = io.StringIO(self.text)
        gc.collect()

        def load() -> Any:
            self.raptor = ThreatRaptor()
            return self.raptor.load_log(stream, inputs.HOST)

        before = len(self.rec.latencies)
        self.op(
            "load",
            load,
            lambda report: report.relational_rows == self.pinned_rows
            and report.reduction == self.pinned_reduction,
        )
        if len(self.rec.latencies) == before or self.raptor is None:
            return 0
        self.rec.load_rates.append((0, self.records / self.rec.latencies[-1]))
        with self.unrecorded():  # the hunts below are checks, not work
            for report in auditable_reports():
                pinned = self.pinned_hunts.get(report.name)
                if pinned is None:
                    continue
                matched = self.raptor.hunt(report.text).result.all_matched_event_ids()
                self.require(matched == pinned, f"{report.name}: hunt differs between loads")
                self.f1_counts.append(_f1_counts(matched, self.truth[report.name]))
        return 0


# ---------------------------------------------------------------------------
# adhoc_hunt / segment_hunt
# ---------------------------------------------------------------------------


class AdhocHunt(Workload):
    name = "adhoc_hunt"
    setup_repeats = 5  # its load rate is measured here: five samples, not three
    traced_cycles = 15

    def setup(self) -> None:
        self.raptor = None  # one store at a time, or peak_rss_mb counts two
        self.generated = inputs.campaign(self.seed, self.scaled(CAMPAIGN_NOISE, 1.0))
        self.queries = inputs.query_mix(self.generated)
        self.raptor = self.build()

    def build(self) -> ThreatRaptor:
        """Load the campaign trace into a fresh default (in-memory) pipeline."""
        raptor = ThreatRaptor()
        trace = self.generated.trace
        _, seconds = self.timed("facade", lambda: raptor.load_trace(trace))
        self.setup_load_rates.append((0, len(trace.events) / seconds))
        return raptor

    def input_parts(self) -> Iterable[str]:
        yield from inputs.trace_lines(self.generated.trace)
        for query in self.queries:
            yield query.text

    def warm_up(self) -> None:
        self.pinned: dict[str, tuple[int, frozenset[int]]] = {}
        for query in self.queries:
            result = self.raptor.execute_query(query.text)
            matched = frozenset(result.all_matched_event_ids())
            self.pinned[query.name] = (len(result), matched)
            if query.expected is not None:
                self.f1_counts.append(_f1_counts(matched, query.expected))
                self.require(matched == query.expected, f"{query.name}: not the ground truth")
        floor = 100 if self.scale >= 1 else 1
        self.require(
            self.pinned["wide_windowed"][0] >= floor,
            f"wide_windowed window holds fewer than {floor} rows",
        )

    def cycle(self) -> int:
        raptor = self.raptor
        for query in self.queries:
            pinned = self.pinned[query.name]
            self.op(
                query.name,
                lambda: raptor.execute_query(query.text),
                lambda result: (len(result), result.all_matched_event_ids()) == pinned,
            )
        return 0


class SegmentHunt(AdhocHunt):
    """The ``adhoc_hunt`` trace and mix on durable segments, read after a restart."""

    name = "segment_hunt"
    setup_repeats = 3  # a set-up is a write, a reopen and a first hunt: ~2 s
    traced_cycles = 10

    data_dir: Path | None = None

    def build(self) -> ThreatRaptor:
        """Write the trace into fresh segments, drop the pipeline, reopen the directory."""
        self.close()
        self.data_dir = Path(tempfile.mkdtemp(prefix="segments-", dir=self.workdir))
        config = ThreatRaptorConfig(storage="segments", data_dir=str(self.data_dir))
        trace = self.generated.trace

        def write() -> None:
            writer = ThreatRaptor(config)
            writer.load_trace(trace)
            writer.store.flush()  # seal the memtable: everything below is on disk

        _, seconds = self.timed("facade", write)
        self.setup_load_rates.append((0, len(trace.events) / seconds))
        gc.collect()

        disk_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(self.data_dir)
            for name in names
        )
        raptor, _ = self.timed("storage.segment.reopen", lambda: ThreatRaptor(config))
        staging = self.queries[0]
        first, first_hunt_seconds = self.timed("facade", lambda: raptor.execute_query(staging.text))
        self.require(
            first.all_matched_event_ids() == staging.expected,
            "first hunt after reopen is not the ground truth",
        )
        self.counters["storage.segment.seal.bytes_written"] = float(disk_bytes)
        self.counters["storage.segment.disk_bytes_per_event"] = disk_bytes / len(trace.events)
        self.counters["storage.segment.first_hunt_ms"] = first_hunt_seconds * 1e3
        return raptor

    def cycle(self) -> int:
        relational = self.raptor.store.relational
        scanned, pruned = relational.segments_scanned, relational.segments_pruned
        super().cycle()
        if self.tracer is not None:
            self.tracer.count(
                "storage.segment.execute.segments_scanned", relational.segments_scanned - scanned
            )
            self.tracer.count(
                "storage.segment.execute.segments_pruned", relational.segments_pruned - pruned
            )
        return 0

    def close(self) -> None:
        self.raptor = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None


# ---------------------------------------------------------------------------
# standing_hunt
# ---------------------------------------------------------------------------


class Stream:
    """One campaign as a batched record stream, with what its replay must produce."""

    def __init__(self, seed: int, noise_scale: float) -> None:
        self.generated = inputs.campaign(seed, noise_scale)
        records = list(ReplaySource(self.generated.trace).records())
        self.batches = list(iter_batches(records, STREAM_BATCH))
        self.events = len(records)
        self.pinned_alerts: int | None = None


class StandingHunt(Workload):
    """Replays of several campaigns, each through a fresh service with 7 standing hunts.

    What a batch costs depends on where in the stream the campaign's stages
    fall (measured: the median batch takes 15-23 ms across seeds at equal
    size), so one run replays ``STANDING_STREAMS`` campaigns drawn from its
    seed in turn and reports the median over them.
    """

    name = "standing_hunt"
    traced_cycles = STANDING_STREAMS

    def setup(self) -> None:
        noise = self.scaled(STANDING_NOISE, 1.0)
        self.streams = [
            Stream(self.seed * STANDING_STREAMS + index, noise)
            for index in range(STANDING_STREAMS)
        ]
        self.corpus = ReportCorpus.variants(STANDING_CORPUS, seed=self.seed)
        self.turn = 0
        self.service = self.register(self.streams[0])
        self.growth: list[tuple[float, float]] = []

    def register(self, stream: Stream) -> Any:
        """A fresh pipeline with the corpus hunts and the campaign's two hunts standing."""
        raptor = ThreatRaptor()
        service = raptor.hunt_corpus(self.corpus, batch_size=STREAM_BATCH).service
        for hunt in stream.generated.hunts:
            service.register_hunt(hunt.name, query=hunt.query_text)
        return service

    def input_parts(self) -> Iterable[str]:
        for stream in self.streams:
            yield from inputs.trace_lines(stream.generated.trace)
            for hunt in stream.generated.hunts:
                yield hunt.query_text
        for report in self.corpus:
            yield report.text

    def warm_up(self) -> None:
        # A quarter of one stream through a throw-away service: the code paths
        # are warm, and every timed replay still starts from an empty store.
        stream = self.streams[0]
        service = self.register(stream)
        for batch in stream.batches[: max(1, len(stream.batches) // 4)]:
            service.process_batch(batch)

    def cycle(self) -> int:
        tracer = self.tracer
        key = self.turn % len(self.streams)
        stream = self.streams[key]
        self.turn += 1
        self.service = None  # drop the previous replay's store before building the next
        gc.collect()
        with self.unrecorded():  # registration is set-up work, traced there
            service = self.service = self.register(stream)
        gc.collect()

        first_span = len(tracer.spans) if tracer is not None else 0
        before = len(self.rec.latencies)
        alerts = 0
        for batch in stream.batches:
            raised = self.op(
                "batch", lambda: service.process_batch(batch), lambda out: isinstance(out, list)
            )
            alerts += len(raised or ())
        flushed, flush_seconds = self.timed("facade", service.flush)
        alerts += len(flushed)
        busy = sum(self.rec.latencies[before:]) + flush_seconds
        self.rec.load_rates.append((key, stream.events / busy))
        self.verify(stream, service, alerts)
        if tracer is not None:
            self.trace_replay(tracer, first_span, service)
        return key

    def verify(self, stream: Stream, service: Any, alerts: int) -> None:
        """A replay's standing answers: ground truth matched, nothing quarantined."""
        self.rec.attempted += 1
        good = True
        for hunt in stream.generated.hunts:
            matched = service.matched_event_ids(hunt.name)
            self.f1_counts.append(_f1_counts(matched, hunt.expected_event_ids))
            good = good and matched == hunt.expected_event_ids
        good = good and all(standing.status == "ok" for standing in service.hunts)
        if stream.pinned_alerts is None:
            stream.pinned_alerts = alerts
        good = good and alerts == stream.pinned_alerts and alerts >= len(stream.generated.hunts)
        if not good:
            self._failed("replay", "standing hunts did not reproduce the expected alerts")

    def trace_replay(self, tracer: Tracer, first_span: int, service: Any) -> None:
        """Plan-cache counters, and how much slower the evaluator ends a replay than it starts."""
        for standing in service.hunts:
            info = standing.prepared.cache_info() if standing.prepared is not None else {}
            tracer.count("tbql.prepared.plan_hits", info.get("hits", 0))
            tracer.count("tbql.prepared.plan_misses", info.get("misses", 0))
        durations = [
            span.duration for span in tracer.spans[first_span:] if span.name == "streaming.evaluate"
        ]
        quarter = len(durations) // 4
        if not quarter:
            return
        self.growth.append(
            (statistics.median(durations[:quarter]), statistics.median(durations[-quarter:]))
        )
        early = statistics.median(early for early, _ in self.growth)
        late = statistics.median(late for _, late in self.growth)
        self.counters["streaming.evaluate.early_p50_ms"] = early * 1e3
        self.counters["streaming.evaluate.late_p50_ms"] = late * 1e3
        self.counters["streaming.evaluate.growth_ratio"] = late / early if early else 0.0


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (IntelCorpus, AuditIngest, AdhocHunt, SegmentHunt, StandingHunt)
}
