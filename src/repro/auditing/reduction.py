"""Causality Preserved Reduction (CPR) of audit events.

System auditing produces an enormous number of repeated events between the
same pair of entities (e.g., a process issuing thousands of ``write`` calls to
the same log file).  ThreatRaptor adopts the Causality Preserved Reduction
technique (Xu et al., CCS 2016) to merge such excessive events while keeping
the causal (information-flow) semantics of the trace intact.

The rule implemented here follows the published technique: two events over the
same ⟨subject, object, operation⟩ edge may be merged iff no *interleaving*
event on either endpoint could change the forward/backward trackability of the
endpoints — concretely, we merge consecutive same-edge events when neither the
subject nor the object participated in another event (as source of outgoing
flow or sink of incoming flow) between them, or when the gap between them is
within a configurable merge window and no other edge touched either endpoint
inside that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.auditing.events import SystemEvent


@dataclass(frozen=True)
class ReductionStats:
    """Outcome of one CPR pass."""

    events_before: int
    events_after: int

    @property
    def reduction_factor(self) -> float:
        """How many times smaller the reduced trace is (>= 1.0)."""
        if self.events_after == 0:
            return 1.0
        return self.events_before / self.events_after

    @property
    def events_removed(self) -> int:
        return self.events_before - self.events_after


class IncrementalReducer:
    """Causality Preserved Reduction over a time-ordered event stream.

    The last event on each edge stays *pending* (not yet emitted) while it can
    still absorb merges: until another edge touches one of its endpoints, a
    same-edge event arrives outside the merge window, or the stream's
    watermark moves past the window.  Only then is it sealed and emitted, as
    one event per merge run: the run's first event (its id, edge and host)
    spanning the run's minimum start, maximum end and summed amount.

    Fed a time-ordered stream in batches of any size, the concatenated output
    (plus a final :meth:`flush`) is the same event set one pass over the whole
    stream produces.  A whole-trace load is such a stream with one batch.

    Args:
        merge_window_ns: Maximum time gap (in nanoseconds) between two
            same-edge events for them to be merge candidates.  The default of
            10 seconds matches the aggregation windows used in the CPR paper's
            evaluation; a window of ``None`` merges regardless of gap as long
            as causality is preserved.
    """

    def __init__(self, merge_window_ns: int | None = 10_000_000_000) -> None:
        self._merge_window_ns = merge_window_ns
        #: Edge -> the first event of its open merge run.
        self._pending: dict[tuple[int, int, str], SystemEvent] = {}
        #: Edge -> ``[min start, max end, summed amount, end of the last
        #: event]`` of a pending run that has merged; the merged event is
        #: built once, when the run seals.
        self._totals: dict[tuple[int, int, str], list[int]] = {}
        #: Entity id -> the pending edge touching it.  An event seals every
        #: other pending edge on its endpoints, so there is at most one.
        self._pending_edge_of: dict[int, tuple[int, int, str]] = {}
        #: Event ids of the runs' first events (a merge keeps the id).
        self._pending_ids: set[int] = set()
        self._watermark_ns: int | None = None
        self.events_seen = 0
        self.events_emitted = 0

    @property
    def pending_count(self) -> int:
        """Events currently buffered awaiting a merge decision."""
        return len(self._pending)

    def is_pending(self, event_id: int) -> bool:
        """True when an event with ``event_id`` is buffered awaiting a merge
        decision (as the first event of its edge's run)."""
        return event_id in self._pending_ids

    def ingest(self, events: Iterable[SystemEvent]) -> list[SystemEvent]:
        """Feed one micro-batch of events; returns the events sealed by it.

        Events are processed in ``(start_time, event_id)`` order within the
        batch; across batches the stream is expected to arrive time-ordered
        (the equivalence with one pass only holds for in-order streams).
        """
        ordered = sorted(events, key=lambda e: (e.start_time, e.event_id))
        self.events_seen += len(ordered)
        window = self._merge_window_ns
        pending = self._pending
        totals = self._totals
        edge_of = self._pending_edge_of
        sealed: list[SystemEvent] = []
        for event in ordered:
            subject_id = event.subject_id
            object_id = event.object_id
            # ``_value_`` is the member's value without the ``Enum.value``
            # descriptor call, a tenth of this loop's time on a trace that
            # does not merge.
            edge = (subject_id, object_id, event.operation._value_)
            # A pending run on another edge through either endpoint is
            # interleaved by this event: it can absorb no more merges.
            other = edge_of.get(subject_id)
            if other is not None and other != edge:
                sealed.append(self._seal(other))
            other = edge_of.get(object_id)
            if other is not None and other != edge:
                sealed.append(self._seal(other))

            first = pending.get(edge)
            if first is not None:
                run = totals.get(edge)
                last_end = first.end_time if run is None else run[3]
                if window is None or event.start_time - last_end <= window:
                    if run is None:
                        run = totals[edge] = [first.start_time, first.end_time, first.amount, 0]
                    if event.start_time < run[0]:
                        run[0] = event.start_time
                    if event.end_time > run[1]:
                        run[1] = event.end_time
                    run[2] += event.amount
                    run[3] = event.end_time
                    continue
                sealed.append(self._seal(edge))
            pending[edge] = event
            self._pending_ids.add(event.event_id)
            edge_of[subject_id] = edge
            edge_of[object_id] = edge

        if ordered and (self._watermark_ns is None or ordered[-1].start_time > self._watermark_ns):
            self._watermark_ns = ordered[-1].start_time
        sealed.extend(self._seal_expired())
        return sealed

    def flush(self) -> list[SystemEvent]:
        """Seal and emit every pending event (end of stream / on demand)."""
        return [self._seal(edge) for edge in list(self._pending)]

    def statistics(self) -> ReductionStats:
        """Reduction counters over everything ingested so far.

        Pending (not yet sealed) events count as one future emission each.
        """
        return ReductionStats(
            events_before=self.events_seen,
            events_after=self.events_emitted + self.pending_count,
        )

    # -- internal ----------------------------------------------------------

    def _seal(self, edge: tuple[int, int, str]) -> SystemEvent:
        first = self._pending.pop(edge)
        self._pending_ids.discard(first.event_id)
        del self._pending_edge_of[edge[0]]
        self._pending_edge_of.pop(edge[1], None)  # gone already for a self-loop
        self.events_emitted += 1
        run = self._totals.pop(edge, None)
        return first if run is None else first.spanning(run[0], run[1], run[2])

    def _seal_expired(self) -> list[SystemEvent]:
        """Seal pending events no future in-order event could merge with.

        Any future event starts at or after the watermark, so a pending edge
        whose last constituent ended more than a merge window before the
        watermark can never be a merge target again.
        """
        if self._merge_window_ns is None or self._watermark_ns is None:
            return []
        horizon = self._watermark_ns - self._merge_window_ns
        totals = self._totals
        expired = [
            edge
            for edge, first in self._pending.items()
            if (totals[edge][3] if edge in totals else first.end_time) < horizon
        ]
        return [self._seal(edge) for edge in expired]
