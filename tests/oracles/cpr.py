"""Whole-trace Causality Preserved Reduction: the reference the one reducer
(:class:`~repro.auditing.reduction.IncrementalReducer`) is compared against.

The rule, looked at *backwards*: an event merges into the previous event on
its ⟨subject, object, operation⟩ edge when the gap between them is within the
merge window and no other event touched either endpoint in between.  The
product applies the same rule *forwards*, one event at a time; this module
keeps the backward form because it states the rule over the whole trace at
once, with nothing pending.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from repro.auditing.events import SystemEvent
from repro.auditing.reduction import ReductionStats
from repro.auditing.trace import AuditTrace


def reduce_trace(
    trace: AuditTrace, merge_window_ns: int | None = 10_000_000_000
) -> tuple[AuditTrace, ReductionStats]:
    """A reduced copy of ``trace`` plus its statistics.

    The reduced events come in ``(start_time, event_id)`` order of each merge
    run's first event; a run keeps that event's id.  A run is labelled
    malicious when any of its events was.
    """
    ordered = sorted(trace.events, key=lambda e: (e.start_time, e.event_id))
    # Per entity, the ordered positions of the events that touch it.
    touches: dict[int, list[int]] = defaultdict(list)
    for index, event in enumerate(ordered):
        touches[event.subject_id].append(index)
        touches[event.object_id].append(index)

    last_on_edge: dict[tuple[int, int, str], int] = {}
    firsts: list[SystemEvent] = []  # the first event of each merge run
    run_of: list[int] = []  # ordered position -> its run's position in firsts
    totals: dict[int, list[int]] = {}  # run -> [min start, max end, summed amount]
    malicious: set[int] = set()

    for index, event in enumerate(ordered):
        edge = (event.subject_id, event.object_id, event.operation.value)
        previous = last_on_edge.get(edge)
        last_on_edge[edge] = index
        if previous is not None:
            gap = event.start_time - ordered[previous].end_time
            within_window = merge_window_ns is None or gap <= merge_window_ns
            if within_window and not _interleaved(touches, previous, index, edge):
                position = run_of[previous]
                run_of.append(position)
                first = firsts[position]
                total = totals.setdefault(
                    position, [first.start_time, first.end_time, first.amount]
                )
                total[0] = min(total[0], event.start_time)
                total[1] = max(total[1], event.end_time)
                total[2] += event.amount
                if event.event_id in trace.malicious_event_ids:
                    malicious.add(first.event_id)
                continue
        run_of.append(len(firsts))
        firsts.append(event)
        if event.event_id in trace.malicious_event_ids:
            malicious.add(event.event_id)

    for position, (start_time, end_time, amount) in totals.items():
        firsts[position] = firsts[position].spanning(start_time, end_time, amount)
    reduced = AuditTrace(
        host=trace.host, entities=list(trace.entities), events=firsts, malicious_event_ids=malicious
    )
    return reduced, ReductionStats(events_before=len(ordered), events_after=len(firsts))


def _interleaved(
    touches: dict[int, list[int]], previous: int, index: int, edge: tuple[int, int, str]
) -> bool:
    """True if another event touched either endpoint of ``edge`` strictly
    between ordered positions ``previous`` and ``index``."""
    for entity_id in edge[:2]:
        positions = touches[entity_id]
        after = bisect_right(positions, previous)
        if after < len(positions) and positions[after] < index:
            return True
    return False
