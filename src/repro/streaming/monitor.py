"""Standing TBQL queries, re-evaluated incrementally per micro-batch.

A registered hunt keeps its synthesized TBQL query *standing*: it is prepared
once at registration (a :class:`~repro.tbql.prepared.PreparedQuery` — there is
no other evaluation path), after every ingested micro-batch that prepared
query is re-executed, and any **new** matches are turned into alerts.  Two
mechanisms keep that cheap and exact:

* **Watermark windowing** — because ingestion appends events in time order,
  every match that is new in a batch must bind at least one newly stored
  event; and when the query's ``with`` clause orders every pattern before a
  unique final pattern (the *temporal sink*, e.g. ``evt8`` in the Figure 2
  query), that sink's event must itself start at or after the batch's
  watermark.  The monitor therefore narrows the sink pattern to the window
  ``[watermark, ∞)`` (a per-execution ``window_overrides`` entry, not a
  rebuilt AST), so each re-evaluation scans only new data and constrains
  the remaining patterns from it, instead of re-running the query over the
  whole store.
* **Alert deduplication** — matches are identified by the set of audit event
  ids they bind; signatures already seen (including ones re-found because the
  watermark had to be conservative) are suppressed, so a match alerts exactly
  once no matter how many batches re-find it.

Graph-backed hunts (path patterns, or everything under ``backend="graph"``)
are evaluated **incrementally** through the same watermark window: because
path edges are temporally non-decreasing, any match that binds an edge
appended in the current micro-batch must have its *final hop* start at or
after the watermark, so narrowing the sink to ``[watermark, ∞)`` lets the
cost-guided planner (:mod:`repro.storage.graph.planner`) seed the search from
the graph's time index — only the new edges are explored, outward and
backward, instead of re-enumerating every path in the graph.  The planner's
strategy per evaluation is recorded on the hunt
(:attr:`StandingQuery.last_graph_plans`) so incrementality is observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.auditing.entities import DEFAULT_ATTRIBUTE, EntityType
from repro.errors import ExecutionError, TBQLAnalysisError
from repro.streaming.alerts import Alert
from repro.tbql.analysis.diagnostics import AnalysisReport
from repro.tbql.analysis.structure import temporal_sink
from repro.tbql.ast import Query, TimeWindow
from repro.tbql.formatter import format_query
from repro.tbql.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tbql.prepared import PreparedQuery

#: Upper bound used for open-ended watermark windows.
MAX_TIME_NS = 2**63 - 1


@dataclass
class StandingQuery:
    """One registered hunt and its incremental evaluation state."""

    name: str
    query: Query
    query_text: str
    #: Event id of the temporal sink pattern (see module docstring), or
    #: ``None`` when the query has no unique temporally-final pattern — such
    #: hunts fall back to full re-evaluation plus deduplication.
    sink_event_id: str | None = None
    #: The query's prepared form (analysis + schedule + per-pattern compiled
    #: templates), derived once at registration.  ``None`` only for a hunt
    #: the static-analysis gate rejected at registration.
    prepared: "PreparedQuery | None" = None
    #: Static-analysis findings from registration: ``prepared.analysis`` for
    #: an admitted hunt (``None`` under ``analysis_mode="off"``), the error
    #: diagnostics the gate raised for a rejected one — which is registered
    #: quarantined instead of failing on every batch.
    analysis: AnalysisReport | None = None
    #: Ids of the OSCTI reports this hunt stands for (corpus provenance);
    #: stamped onto every raised alert.  Grows when later corpus passes dedup
    #: an equivalent report onto this hunt.
    provenance: tuple[str, ...] = ()
    #: The query's canonical dedup key (see :mod:`repro.tbql.canonical`), when
    #: the registrar computed one; corpus registration uses it to route
    #: equivalent queries onto existing hunts.
    canonical_key: str | None = None
    evaluations: int = 0
    eval_seconds: float = 0.0
    alerts_raised: int = 0
    #: Total evaluation failures over the hunt's lifetime, and how many of
    #: them were consecutive (the quarantine trigger).  A hunt whose
    #: evaluation raises is *degraded*, not fatal: the monitor records the
    #: error and keeps the service alive.
    errors: int = 0
    consecutive_errors: int = 0
    last_error: str | None = None
    #: Set after ``quarantine_after`` consecutive failures; a quarantined
    #: hunt is skipped by :meth:`QueryMonitor.evaluate` until
    #: :meth:`QueryMonitor.reinstate` clears it.
    quarantined: bool = False
    #: Graph planner EXPLAIN summaries from the most recent evaluation, keyed
    #: by pattern event id.  After the first (full) evaluation of a
    #: graph-backed hunt these should report the ``window-seeded`` strategy —
    #: the observable sign that per-batch work tracks the delta, not the graph.
    last_graph_plans: dict[str, Any] = dataclass_field(default_factory=dict)
    _seen_signatures: set[tuple[int, ...]] = dataclass_field(default_factory=set)
    _matched_event_ids: set[int] = dataclass_field(default_factory=set)
    _initialized: bool = False

    def matched_event_ids(self) -> set[int]:
        """Union of audit event ids matched by this hunt so far."""
        return set(self._matched_event_ids)

    @property
    def status(self) -> str:
        """``"ok"``, ``"degraded"`` (errors seen) or ``"quarantined"``."""
        if self.quarantined:
            return "quarantined"
        return "degraded" if self.errors else "ok"

    # -- checkpoint/restore --------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable restart state (everything but the store's data).

        Signatures are restart-stable by construction — sorted audit event
        ids (``evt.num`` values from the log), never interpreter-run-specific
        values like ``id()`` or seeded hashes — so a snapshot written by one
        process deduplicates matches re-found by the next.
        """
        return {
            "name": self.name,
            "query_text": self.query_text,
            "provenance": list(self.provenance),
            "canonical_key": self.canonical_key,
            "evaluations": self.evaluations,
            "alerts_raised": self.alerts_raised,
            "errors": self.errors,
            "last_error": self.last_error,
            "quarantined": self.quarantined,
            "seen_signatures": sorted(list(sig) for sig in self._seen_signatures),
            "matched_event_ids": sorted(self._matched_event_ids),
        }

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Adopt the counters and dedup state of ``snapshot``.

        ``_initialized`` stays False: after a restart the audit store is
        empty and must be re-ingested, so the first evaluation scans
        everything rather than trusting a stale watermark.
        """
        self.evaluations = int(snapshot.get("evaluations", 0))
        self.alerts_raised = int(snapshot.get("alerts_raised", 0))
        self.errors = int(snapshot.get("errors", 0))
        self.last_error = snapshot.get("last_error")
        self.quarantined = bool(snapshot.get("quarantined", False))
        self._seen_signatures = {
            tuple(int(event_id) for event_id in signature)
            for signature in snapshot.get("seen_signatures", ())
        }
        self._matched_event_ids = {
            int(event_id) for event_id in snapshot.get("matched_event_ids", ())
        }
        self._initialized = False

    def absorb_signatures(self, signatures: Iterable[Iterable[int]]) -> int:
        """Mark signatures as already alerted without raising anything.

        Used on resume to merge the alert journal's durable record into the
        dedup state: an alert that reached the journal after the last
        checkpoint must not be re-emitted when replayed batches re-find it.
        Returns how many signatures were new to this hunt.
        """
        absorbed = 0
        for raw in signatures:
            signature = tuple(sorted(int(event_id) for event_id in raw))
            if signature in self._seen_signatures:
                continue
            self._seen_signatures.add(signature)
            self._matched_event_ids.update(signature)
            self.alerts_raised += 1
            absorbed += 1
        return absorbed


class QueryMonitor:
    """Evaluates standing queries against the store after each batch.

    Args:
        prepare: Query preparation callable (typically
            :meth:`ThreatRaptor.prepare_query`).  Every registered hunt is
            prepared once; each batch executes the prepared query with only
            the watermark window swapped in.
        quarantine_after: Consecutive evaluation failures after which a hunt
            is quarantined (skipped) instead of crashing the service on every
            batch.  A failing evaluation never propagates; it is counted on
            the hunt and surfaced through ``statistics()``.

    A query the static-analysis gate rejects (``prepare`` raises
    :class:`~repro.errors.TBQLAnalysisError`, i.e. error diagnostics under
    ``analysis_mode="enforce"``) is registered **quarantined**: it stays
    visible (name, provenance, diagnostics) but is never evaluated, reusing
    the same status machinery as runtime failures.
    """

    def __init__(
        self,
        prepare: "Callable[..., PreparedQuery]",
        quarantine_after: int = 3,
    ) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1")
        self._prepare = prepare
        self._quarantine_after = quarantine_after
        self._queries: dict[str, StandingQuery] = {}
        #: canonical key -> hunt name, for O(1) corpus dedup routing.  The
        #: first registration of a key wins, matching the scan it replaces.
        self._names_by_canonical: dict[str, str] = {}

    # -- registration --------------------------------------------------------

    def register(
        self,
        name: str,
        query: Query | str,
        provenance: Iterable[str] = (),
        canonical_key: str | None = None,
    ) -> StandingQuery:
        """Register a standing query under ``name``.

        Args:
            name: Unique hunt name.
            query: TBQL source text or AST.
            provenance: Ids of the OSCTI reports the query stands for; carried
                onto every alert the hunt raises.
            canonical_key: Optional canonical dedup key of the query (corpus
                registration routes equivalent queries by it).

        Raises:
            ValueError: if the name is already taken.
        """
        if name in self._queries:
            raise ValueError(f"a standing query named {name!r} is already registered")
        ast = parse_query(query) if isinstance(query, str) else query
        sink_event_id = temporal_sink(ast)
        prepared: PreparedQuery | None = None
        rejection: str | None = None
        try:
            # The sink pattern is hinted as windowed so the prepared schedule
            # matches what scheduling the watermark-narrowed query would
            # produce (the windowed sink runs first and constrains the rest).
            hints = (sink_event_id,) if sink_event_id is not None else ()
            prepared = self._prepare(ast, window_hints=hints)
            analysis = prepared.analysis
        except TBQLAnalysisError as exc:
            # Lint-rejected: register quarantined, never evaluate.  The hunt
            # stays visible with its provenance and diagnostics so operators
            # can see *why* it will never fire.
            analysis = AnalysisReport(diagnostics=tuple(exc.diagnostics))
            rejection = "static analysis: " + "; ".join(
                f"[{diagnostic.rule}] {diagnostic.message}" for diagnostic in exc.diagnostics
            )
        standing = StandingQuery(
            name=name,
            query=ast,
            # Rendered after ``prepare``: its semantic analysis normalizes the
            # AST in place, and this text is what checkpoints persist.
            query_text=format_query(ast),
            sink_event_id=sink_event_id if prepared is not None else None,
            prepared=prepared,
            analysis=analysis,
            provenance=tuple(provenance),
            canonical_key=canonical_key,
            errors=int(rejection is not None),
            last_error=rejection,
            quarantined=rejection is not None,
        )
        self._queries[name] = standing
        if canonical_key is not None:
            self._names_by_canonical.setdefault(canonical_key, name)
        return standing

    def unregister(self, name: str) -> None:
        standing = self._queries.pop(name, None)
        if (
            standing is not None
            and standing.canonical_key is not None
            and self._names_by_canonical.get(standing.canonical_key) == name
        ):
            # Re-point the routing at a surviving hunt with the same key (two
            # hunts can share one when both were registered directly), so
            # corpus passes keep deduping onto it instead of re-registering.
            survivor = next(
                (
                    other.name
                    for other in self._queries.values()
                    if other.canonical_key == standing.canonical_key
                ),
                None,
            )
            if survivor is None:
                del self._names_by_canonical[standing.canonical_key]
            else:
                self._names_by_canonical[standing.canonical_key] = survivor

    def extend_provenance(self, name: str, report_ids: Iterable[str]) -> StandingQuery:
        """Append report ids to a hunt's provenance (duplicates skipped)."""
        standing = self._queries[name]
        merged = list(standing.provenance)
        for report_id in report_ids:
            if report_id not in merged:
                merged.append(report_id)
        standing.provenance = tuple(merged)
        return standing

    def by_canonical_key(self, canonical_key: str) -> StandingQuery | None:
        """The registered hunt carrying ``canonical_key``, if any."""
        name = self._names_by_canonical.get(canonical_key)
        return self._queries.get(name) if name is not None else None

    @property
    def queries(self) -> list[StandingQuery]:
        return list(self._queries.values())

    def query(self, name: str) -> StandingQuery:
        return self._queries[name]

    def get(self, name: str) -> StandingQuery | None:
        """The hunt called ``name``, or ``None`` when not registered."""
        return self._queries.get(name)

    # -- checkpoint/restore --------------------------------------------------

    def snapshot_state(self) -> list[dict[str, Any]]:
        """Restart state of every registered hunt, in registration order."""
        return [standing.snapshot() for standing in self._queries.values()]

    def restore_state(self, snapshots: Iterable[dict[str, Any]]) -> list[StandingQuery]:
        """Re-register hunts from checkpoint snapshots and restore their state.

        Each snapshot's TBQL text is re-parsed and re-prepared (plans are
        derived state, cheap to rebuild and tied to the new store), then the
        hunt's counters and dedup signatures are adopted.
        """
        restored: list[StandingQuery] = []
        for snapshot in snapshots:
            standing = self.register(
                snapshot["name"],
                snapshot["query_text"],
                provenance=snapshot.get("provenance", ()),
                canonical_key=snapshot.get("canonical_key"),
            )
            standing.restore(snapshot)
            restored.append(standing)
        return restored

    def reinstate(self, name: str) -> StandingQuery:
        """Clear a hunt's quarantine so the next batch evaluates it again."""
        standing = self._queries[name]
        standing.quarantined = False
        standing.consecutive_errors = 0
        return standing

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self, batch_index: int, watermark_start_ns: int | None
    ) -> list[Alert]:
        """Re-evaluate every standing query against the current store state.

        Args:
            batch_index: Sequence number recorded on raised alerts.
            watermark_start_ns: Earliest start time of the events the batch
                just made queryable; sink patterns are narrowed to
                ``[watermark, ∞)``.  ``None`` forces a full evaluation.

        Returns:
            The newly raised (deduplicated) alerts across all hunts.
        """
        alerts: list[Alert] = []
        for standing in self._queries.values():
            if standing.quarantined:
                continue
            alerts.extend(self._evaluate_one(standing, batch_index, watermark_start_ns))
        return alerts

    def _evaluate_one(
        self, standing: StandingQuery, batch_index: int, watermark_start_ns: int | None
    ) -> list[Alert]:
        # The first evaluation always scans everything: data ingested before
        # the hunt was registered would otherwise never be matched.
        started = time.perf_counter()
        try:
            if standing.prepared is None:  # reinstated, but never admitted
                raise ExecutionError(standing.last_error or "hunt was never prepared")
            overrides = self._window_overrides(standing, watermark_start_ns)
            result = standing.prepared.execute(window_overrides=overrides)
        except Exception as exc:  # noqa: BLE001 - one bad hunt must not kill the service
            standing.eval_seconds += time.perf_counter() - started
            standing.evaluations += 1
            standing.errors += 1
            standing.consecutive_errors += 1
            standing.last_error = f"{type(exc).__name__}: {exc}"
            if standing.consecutive_errors >= self._quarantine_after:
                standing.quarantined = True
            return []
        standing.eval_seconds += time.perf_counter() - started
        standing.evaluations += 1
        standing.consecutive_errors = 0
        standing.last_graph_plans = dict(result.statistics.get("graph_plans") or {})
        standing._initialized = True

        alerts: list[Alert] = []
        for binding in result.bindings:
            signature = self._signature(binding)
            if not signature or signature in standing._seen_signatures:
                continue
            standing._seen_signatures.add(signature)
            standing._matched_event_ids.update(signature)
            standing.alerts_raised += 1
            alerts.append(self._alert(standing, batch_index, binding, signature))
        return alerts

    # -- internal ------------------------------------------------------------

    def _window_overrides(
        self, standing: StandingQuery, watermark_start_ns: int | None
    ) -> dict[str, TimeWindow] | None:
        """Watermark window for the sink pattern, as prepared-query overrides.

        The first evaluation, a missing watermark and a hunt without a
        temporal sink all run unwindowed; a declared window is intersected
        with ``[watermark, ∞)``, never widened.
        """
        if (
            watermark_start_ns is None
            or not standing._initialized
            or standing.sink_event_id is None
        ):
            return None
        pattern = standing.query.pattern_by_event_id(standing.sink_event_id)
        window = pattern.window if pattern is not None else None
        start = watermark_start_ns if window is None else max(window.start, watermark_start_ns)
        end = MAX_TIME_NS if window is None else window.end
        return {standing.sink_event_id: TimeWindow(start=start, end=end)}

    @staticmethod
    def _signature(binding: dict[str, dict[str, Any]]) -> tuple[int, ...]:
        """A match's identity: the sorted set of audit event ids it binds.

        Signatures must be **restart-stable**: they are persisted by the
        checkpoint store and the alert journal and consulted after a restart
        to suppress duplicate alerts, so they may only be derived from the
        event ids the ``@``-prefixed event bindings carry (``evt.num`` values
        from the audit log) — never from ``id()``, object hashes, or any
        other interpreter-run-specific value.  Sorting removes any dependence
        on binding-dict iteration order.
        """
        matched: set[int] = set()
        for key, value in binding.items():
            if key.startswith("@"):
                matched.update(int(event_id) for event_id in value.get("edge_ids", ()))
        return tuple(sorted(matched))

    @staticmethod
    def _alert(
        standing: StandingQuery,
        batch_index: int,
        binding: dict[str, dict[str, Any]],
        signature: Iterable[int],
    ) -> Alert:
        starts: list[int] = []
        ends: list[int] = []
        entities: dict[str, Any] = {}
        for key, value in binding.items():
            if key.startswith("@"):
                starts.append(value["starttime"])
                ends.append(value["endtime"])
                continue
            display = value.get("id")
            try:
                attribute = DEFAULT_ATTRIBUTE[EntityType(value.get("type"))]
                display = value.get(attribute, display)
            except ValueError:
                pass
            entities[key] = display
        return Alert(
            hunt=standing.name,
            batch_index=batch_index,
            matched_event_ids=tuple(signature),
            start_time_ns=min(starts) if starts else 0,
            end_time_ns=max(ends) if ends else 0,
            entities=entities,
            reports=standing.provenance,
        )


__all__ = ["MAX_TIME_NS", "QueryMonitor", "StandingQuery"]
