"""Seeded inputs for the five workloads, and their fingerprint.

Every generator here takes the benchmark's ``--seed``; the program under
test only ever sees what these functions return.  The generators themselves
live in ``src/`` (``HostSimulator``, ``generate_labeled_trace``,
``corpus_variants``) and a later change may alter them, so each run records
a SHA-256 over its serialized inputs: two results compare only when the
fingerprints match.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass
from typing import Iterable

from repro.auditing.sysdig import write_trace
from repro.auditing.trace import AuditTrace
from repro.auditing.workload import (
    DataLeakageAttack,
    Figure2DataLeakageChain,
    HostSimulator,
    NoisyFileServerWorkload,
    PasswordCrackingAttack,
    SimulationResult,
)
from repro.data.osctireports import AnnotatedReport, auditable_reports, corpus_variants
from repro.scenarios import GeneratedCampaign, generate_labeled_trace

HOST = "victim-host"

#: Share of the trace's time span each windowed query looks at.
WINDOW_SHARE = 16


def demo_host(seed: int, scale: float) -> SimulationResult:
    """The demo deployment: default benign mix, a noisy file server, three attacks."""
    simulator = (
        HostSimulator(host=HOST, seed=seed, benign_scale=scale)
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


def demo_truth(simulation: SimulationResult) -> dict[str, frozenset[int]]:
    """Ground-truth event ids per auditable report name (empty when not injected)."""
    injected = {truth.name: frozenset(truth.event_ids) for truth in simulation.ground_truths}
    return {report.name: injected.get(report.name, frozenset()) for report in auditable_reports()}


def log_text(trace: AuditTrace) -> tuple[str, int]:
    """The trace as Sysdig-style text, and the number of records written."""
    buffer = io.StringIO()
    records = write_trace(trace, buffer)
    return buffer.getvalue(), records


def campaign(seed: int, noise_scale: float) -> GeneratedCampaign:
    """One labeled kill-chain campaign buried in benign noise."""
    return generate_labeled_trace(seed, noise_scale=noise_scale, host=HOST)


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class ReportCase:
    """One report of the ``intel_corpus`` stream.

    ``rotated`` reports are a base report with every indicator renamed: the
    same sentences and the same query shape, but text and query no cache has
    seen, and nothing in the store to match.
    """

    base: str
    text: str
    rotated: bool


_ROTATED_PATH = re.compile(r"(/tmp/|/etc/)")
_LAST_OCTET = re.compile(r"\b(\d{1,3}\.\d{1,3}\.\d{1,3})\.(\d{1,3})\b")


def rotate_iocs(text: str, tag: str, octet: int) -> str:
    """Splice ``tag`` into every ``/tmp/`` and ``/etc/`` path and move the last IP octet."""
    text = _ROTATED_PATH.sub(lambda match: f"{match.group(1)}{tag}", text)
    return _LAST_OCTET.sub(lambda match: f"{match.group(1)}.{octet}", text)


def report_stream(seed: int, count: int) -> list[ReportCase]:
    """``count`` reports alternating feed variants and IOC-rotated variants.

    Half-and-half, so a cache keyed on report text or on the canonical query
    helps one half and cannot look like a win on the whole workload.
    """
    bases = auditable_reports()
    variants = corpus_variants((count + 1) // 2, seed=seed, bases=bases)
    stream: list[ReportCase] = []
    for index in range(count):
        if index % 2 == 0:
            variant = variants[index // 2]
            stream.append(ReportCase(_base_name(variant, bases), variant.text, rotated=False))
        else:
            base = bases[(index // 2) % len(bases)]
            tag = f"r{seed:x}x{index:x}-"
            octet = 1 + (seed * 31 + index) % 250
            stream.append(ReportCase(base.name, rotate_iocs(base.text, tag, octet), rotated=True))
    return stream


def _base_name(variant: AnnotatedReport, bases: tuple[AnnotatedReport, ...]) -> str:
    for base in bases:
        if variant.name.startswith(f"{base.name}-v"):
            return base.name
    raise ValueError(f"variant {variant.name!r} has no base report")


# -- ad-hoc queries ----------------------------------------------------------


@dataclass(frozen=True)
class HuntQuery:
    """One query of the ad-hoc mix; ``expected`` is set for the campaign's own hunts."""

    name: str
    text: str
    expected: frozenset[int] | None = None


def query_mix(generated: GeneratedCampaign) -> list[HuntQuery]:
    """The seven-query analyst mix over a campaign trace, in cycle order.

    Seven equally weighted types, so the pooled median falls inside the
    fourth-ranked type's samples and not on a boundary between two types.
    """
    spec, trace = generated.spec, generated.trace
    staging = generated.hunt("staging")
    exfiltration = generated.hunt("exfiltration")
    first, last = trace.time_span()
    width = max(1, (last - first) // WINDOW_SHARE)

    by_id = {event.event_id: event for event in trace.events}
    staging_times = [by_id[event_id].start_time for event_id in staging.expected_event_ids]
    staging_window = _window_around(min(staging_times), max(staging_times), width)
    staging_windowed = "\n".join(
        f"{line} during ({staging_window[0]}, {staging_window[1]})" if " as stg" in line else line
        for line in staging.query_text.split("\n")
    )

    nginx = {
        entity.entity_id
        for entity in trace.entities
        if getattr(entity, "exename", None) == "/usr/sbin/nginx"
    }
    reads = sorted(
        event.start_time
        for event in trace.events
        if event.subject_id in nginx and event.operation.value == "read"
    )
    wide_window = _busiest_window(reads, first, width)

    return [
        HuntQuery("staging", staging.query_text, staging.expected_event_ids),
        HuntQuery("exfiltration", exfiltration.query_text, exfiltration.expected_event_ids),
        HuntQuery("wide", 'proc p["%/usr/sbin/nginx%"] read file f as evt\nreturn p, f'),
        # Exact match on the dropped tool: the one executable name no benign
        # workload shares (a drawn /bin/bzip2 also matches 130 log rotations).
        HuntQuery("selective", f'proc p["{spec.tool_path}"] execute file f as evt\nreturn p, f'),
        # The developer's shell reaching project files through what it forked.
        # Benign on purpose: anchored on the campaign's own shell, the search
        # costs twice as much on the third of seeds that draw /bin/bash.
        HuntQuery(
            "path",
            'proc p["%/bin/bash%"] ~>(1~3)[write] file f["%/home/alice/project/%"] as evt\n'
            "return distinct p, f",
        ),
        HuntQuery("staging_windowed", staging_windowed, staging.expected_event_ids),
        HuntQuery(
            "wide_windowed",
            f'proc p["%/usr/sbin/nginx%"] read file f as evt '
            f"during ({wide_window[0]}, {wide_window[1]})\nreturn p, f",
        ),
    ]


def _window_around(low: int, high: int, width: int) -> tuple[int, int]:
    """A window of at least ``width`` centred on ``[low, high]``."""
    slack = max(0, width - (high - low)) // 2
    return max(0, low - slack), high + slack


def _busiest_window(times: list[int], first: int, width: int) -> tuple[int, int]:
    """The ``1/WINDOW_SHARE`` slice of the trace holding the most of ``times``."""
    best = (-1, first, first + width)
    for index in range(WINDOW_SHARE):
        low = first + index * width
        high = low + width
        hits = sum(1 for moment in times if low <= moment <= high)
        if hits > best[0]:
            best = (hits, low, high)
    return best[1], best[2]


# -- fingerprint -------------------------------------------------------------


def fingerprint(parts: Iterable[str]) -> str:
    """SHA-256 over the serialized inputs of one run."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def trace_lines(trace: AuditTrace) -> Iterable[str]:
    """One line per event: id, endpoints, operation and time window."""
    for event in trace.events:
        yield (
            f"{event.event_id},{event.subject_id},{event.object_id},"
            f"{event.operation.value},{event.start_time},{event.end_time}"
        )
