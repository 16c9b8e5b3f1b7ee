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

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.auditing.events import SystemEvent
from repro.auditing.trace import AuditTrace


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


class CausalityPreservedReducer:
    """Merges excessive events between the same pair of entities.

    Args:
        merge_window_ns: Maximum time gap (in nanoseconds) between two
            same-edge events for them to be merge candidates.  The default of
            10 seconds matches the aggregation windows used in the CPR paper's
            evaluation; a window of ``None`` merges regardless of gap as long
            as causality is preserved.
    """

    def __init__(self, merge_window_ns: int | None = 10_000_000_000) -> None:
        self._merge_window_ns = merge_window_ns

    def reduce(self, trace: AuditTrace) -> tuple[AuditTrace, ReductionStats]:
        """Return a reduced copy of ``trace`` plus reduction statistics.

        The malicious-event labels are carried over: a merged event is labelled
        malicious if any of its constituents was.
        """
        ordered = sorted(trace.events, key=lambda e: (e.start_time, e.event_id))
        before = len(ordered)

        # For causality preservation we need, per entity, the ordered list of
        # event indices that touch it.  An event between (s, o) may be merged
        # into its predecessor on the same edge only if no *other* event
        # touched s or o in between (that interleaving event could create a
        # new information-flow path whose ordering the merge would destroy).
        touches: dict[int, list[int]] = defaultdict(list)
        for index, event in enumerate(ordered):
            touches[event.subject_id].append(index)
            touches[event.object_id].append(index)

        last_on_edge: dict[tuple[int, int, str], int] = {}
        merged_into: dict[int, int] = {}
        reduced_events: list[SystemEvent] = []
        reduced_malicious: set[int] = set()
        # Map original index -> position in reduced_events so merges can update
        # the already-emitted merged event in place.
        emitted_position: dict[int, int] = {}

        for index, event in enumerate(ordered):
            edge = (event.subject_id, event.object_id, event.operation.value)
            prev_index = last_on_edge.get(edge)
            mergeable = False
            if prev_index is not None:
                prev_event = ordered[prev_index]
                gap = event.start_time - prev_event.end_time
                within_window = (
                    self._merge_window_ns is None or gap <= self._merge_window_ns
                )
                if within_window and not self._interleaved(
                    touches, prev_index, index, event.subject_id, event.object_id
                ):
                    mergeable = True

            if mergeable and prev_index is not None:
                # Merge into the representative event already emitted for the
                # predecessor (which may itself be a merge of earlier events).
                representative_index = merged_into.get(prev_index, prev_index)
                position = emitted_position[representative_index]
                reduced_events[position] = reduced_events[position].merged_with(event)
                merged_into[index] = representative_index
                if (
                    event.event_id in trace.malicious_event_ids
                    or reduced_events[position].event_id in trace.malicious_event_ids
                ):
                    reduced_malicious.add(reduced_events[position].event_id)
            else:
                emitted_position[index] = len(reduced_events)
                reduced_events.append(event)
                if event.event_id in trace.malicious_event_ids:
                    reduced_malicious.add(event.event_id)
            last_on_edge[edge] = index

        reduced = AuditTrace(
            host=trace.host,
            entities=list(trace.entities),
            events=reduced_events,
            malicious_event_ids=reduced_malicious,
        )
        return reduced, ReductionStats(events_before=before, events_after=len(reduced_events))

    def incremental(self) -> "IncrementalReducer":
        """A stateful reducer for streamed event batches.

        The returned :class:`IncrementalReducer` applies the same merge rule as
        :meth:`reduce` but carries its merge-window state across batches, so
        reducing a time-ordered stream batch by batch produces the same event
        set as one whole-trace reduction.
        """
        return IncrementalReducer(merge_window_ns=self._merge_window_ns)

    # -- internal ----------------------------------------------------------

    @staticmethod
    def _interleaved(
        touches: dict[int, list[int]],
        prev_index: int,
        index: int,
        subject_id: int,
        object_id: int,
    ) -> bool:
        """True if any other event touched either endpoint strictly between
        ``prev_index`` and ``index`` in the time-ordered stream.

        The per-entity index lists are built in ascending order, so a binary
        search finds the first index greater than ``prev_index`` in O(log n).
        """
        for entity_id in (subject_id, object_id):
            indices = touches[entity_id]
            position = bisect_right(indices, prev_index)
            if position < len(indices) and indices[position] < index:
                return True
        return False


@dataclass
class _PendingEdge:
    """The still-merge-open representative of the last event on one edge.

    ``last_end`` is the end time of the last *original* constituent, matching
    how the batch reducer computes merge gaps against the unmerged predecessor
    rather than the (time-extended) merged representative.
    """

    representative: SystemEvent
    last_end: int


class IncrementalReducer:
    """Causality Preserved Reduction over a time-ordered event stream.

    The batch reducer decides whether to merge an event into its same-edge
    predecessor by looking *backwards* for interleaving events.  Streaming, the
    same rule is enforced *forwards*: the representative of the last event on
    each edge stays *pending* (not yet emitted) until it can no longer legally
    absorb a merge — i.e. until another edge touches one of its endpoints, a
    same-edge event arrives outside the merge window, or the stream's watermark
    moves past the window.  Only then is it sealed and emitted.

    Feeding the reducer a time-ordered stream batch by batch and concatenating
    the emitted events (plus a final :meth:`flush`) yields exactly the event
    set :meth:`CausalityPreservedReducer.reduce` produces for the whole trace.

    Args:
        merge_window_ns: Same semantics as :class:`CausalityPreservedReducer`.
    """

    def __init__(self, merge_window_ns: int | None = 10_000_000_000) -> None:
        self._merge_window_ns = merge_window_ns
        self._pending: dict[tuple[int, int, str], _PendingEdge] = {}
        self._pending_by_entity: dict[int, set[tuple[int, int, str]]] = defaultdict(set)
        #: Event ids of the pending representatives (a merge keeps the id).
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
        decision (as the representative of its edge)."""
        return event_id in self._pending_ids

    @property
    def watermark_ns(self) -> int | None:
        """Largest event start time observed so far (``None`` before any)."""
        return self._watermark_ns

    def ingest(self, events: Iterable[SystemEvent]) -> list[SystemEvent]:
        """Feed one micro-batch of events; returns the events sealed by it.

        Events are processed in ``(start_time, event_id)`` order within the
        batch; across batches the stream is expected to arrive time-ordered
        (batch-path equivalence only holds for in-order streams).
        """
        sealed: list[SystemEvent] = []
        for event in sorted(events, key=lambda e: (e.start_time, e.event_id)):
            self.events_seen += 1
            edge = (event.subject_id, event.object_id, event.operation.value)

            # Any pending event on a *different* edge touching either endpoint
            # can no longer absorb merges: this event interleaves it.
            for entity_id in (event.subject_id, event.object_id):
                for other_edge in list(self._pending_by_entity.get(entity_id, ())):
                    if other_edge != edge:
                        sealed.append(self._seal(other_edge))

            pending = self._pending.get(edge)
            if pending is not None:
                gap = event.start_time - pending.last_end
                if self._merge_window_ns is None or gap <= self._merge_window_ns:
                    pending.representative = pending.representative.merged_with(event)
                    pending.last_end = event.end_time
                    self._advance_watermark(event.start_time)
                    continue
                sealed.append(self._seal(edge))

            self._pending[edge] = _PendingEdge(representative=event, last_end=event.end_time)
            self._pending_ids.add(event.event_id)
            self._pending_by_entity[event.subject_id].add(edge)
            self._pending_by_entity[event.object_id].add(edge)
            self._advance_watermark(event.start_time)

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

    def _advance_watermark(self, start_time: int) -> None:
        if self._watermark_ns is None or start_time > self._watermark_ns:
            self._watermark_ns = start_time

    def _seal(self, edge: tuple[int, int, str]) -> SystemEvent:
        pending = self._pending.pop(edge)
        self._pending_ids.discard(pending.representative.event_id)
        for entity_id in (edge[0], edge[1]):
            edges = self._pending_by_entity.get(entity_id)
            if edges is not None:
                edges.discard(edge)
                if not edges:
                    del self._pending_by_entity[entity_id]
        self.events_emitted += 1
        return pending.representative

    def _seal_expired(self) -> list[SystemEvent]:
        """Seal pending events no future in-order event could merge with.

        Any future event starts at or after the watermark, so a pending edge
        whose last constituent ended more than a merge window before the
        watermark can never be a merge target again.
        """
        if self._merge_window_ns is None or self._watermark_ns is None:
            return []
        horizon = self._watermark_ns - self._merge_window_ns
        expired = [
            edge for edge, pending in self._pending.items() if pending.last_end < horizon
        ]
        return [self._seal(edge) for edge in expired]


def reduce_trace(
    trace: AuditTrace, merge_window_ns: int | None = 10_000_000_000
) -> tuple[AuditTrace, ReductionStats]:
    """Module-level convenience wrapper around :class:`CausalityPreservedReducer`."""
    return CausalityPreservedReducer(merge_window_ns=merge_window_ns).reduce(trace)
