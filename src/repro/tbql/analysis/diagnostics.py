"""Diagnostic records and severity policy for TBQL static analysis.

Every analysis pass emits :class:`Diagnostic` records — a stable rule id, a
severity, a message, a source span (when the query came from source text) and
a fix hint.  :class:`AnalysisPolicy` maps rule ids to effective severities so
deployments can promote, demote or disable individual rules;
:class:`AnalysisReport` aggregates the policy-filtered diagnostics for one
query and is what the gates in front of preparation and hunt registration
consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import TBQLAnalysisError
from repro.tbql.ast import SourceSpan


class Severity(enum.Enum):
    """Diagnostic severity: only ``ERROR`` gates query admission."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class RuleSpec:
    """Catalog entry for one analysis rule."""

    rule: str
    severity: Severity
    title: str
    analysis_pass: str  # "satisfiability" | "deadcode" | "cost" | "portability"


#: The full rule catalog.  Rule ids are stable API: tests, the README catalog
#: and deployment policies all key on them.
RULES: dict[str, RuleSpec] = {
    spec.rule: spec
    for spec in (
        # -- pass 1: satisfiability (TR1xx) --------------------------------------
        RuleSpec("TR101", Severity.ERROR, "contradictory value range", "satisfiability"),
        RuleSpec("TR102", Severity.ERROR, "equality conflict", "satisfiability"),
        RuleSpec("TR103", Severity.ERROR, "LIKE pattern conflict", "satisfiability"),
        RuleSpec("TR104", Severity.ERROR, "temporal ordering cycle", "satisfiability"),
        RuleSpec("TR105", Severity.ERROR, "time window excludes event ordering", "satisfiability"),
        RuleSpec(
            "TR106", Severity.ERROR, "contradictory attribute relation", "satisfiability"
        ),
        # -- pass 2: dead / redundant predicates (TR2xx) -------------------------
        RuleSpec("TR201", Severity.WARNING, "duplicate predicate", "deadcode"),
        RuleSpec("TR202", Severity.WARNING, "subsumed predicate", "deadcode"),
        RuleSpec("TR203", Severity.WARNING, "duplicate with-clause relation", "deadcode"),
        RuleSpec("TR204", Severity.INFO, "redundant transitive temporal relation", "deadcode"),
        RuleSpec("TR205", Severity.INFO, "unconstrained unused entity", "deadcode"),
        RuleSpec("TR206", Severity.INFO, "entity filter repeated across patterns", "deadcode"),
        # -- pass 3: cost / cardinality (TR3xx) ----------------------------------
        RuleSpec("TR301", Severity.WARNING, "standing query cannot be windowed", "cost"),
        RuleSpec("TR302", Severity.WARNING, "unanchored multi-hop path pattern", "cost"),
        RuleSpec("TR303", Severity.WARNING, "cross-product between pattern groups", "cost"),
        RuleSpec("TR304", Severity.WARNING, "unselective full scan", "cost"),
        # -- pass 4: cross-backend portability (TR4xx) ---------------------------
        RuleSpec("TR401", Severity.INFO, "pattern cannot lower to SQL", "portability"),
        RuleSpec("TR403", Severity.ERROR, "pattern fails to compile", "portability"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static-analysis pass."""

    rule: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    #: Event id of the pattern (or relation endpoint) the finding anchors to.
    event_id: str | None = None
    hint: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form used by the CLI and alert provenance."""
        payload: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None:
            payload["line"] = self.span.line
            payload["column"] = self.span.column
        if self.event_id is not None:
            payload["event_id"] = self.event_id
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    def render(self, source_name: str | None = None) -> str:
        """One-line ``file:line:col: severity[rule]: message`` rendering."""
        location = ""
        if self.span is not None:
            location = f"{self.span.line}:{self.span.column}: "
        prefix = f"{source_name}:" if source_name else ""
        if source_name and not self.span:
            prefix = f"{source_name}: "
        text = f"{prefix}{location}{self.severity.value}[{self.rule}]: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass(frozen=True)
class AnalysisPolicy:
    """Per-rule severity policy applied after the passes run.

    ``severity_overrides`` remaps individual rules (e.g. promote ``TR303`` to
    :attr:`Severity.ERROR` in a deployment that forbids cross-products);
    ``disabled`` drops rules entirely.  Cost thresholds live here too so the
    cost pass is tunable without subclassing.
    """

    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)
    disabled: frozenset[str] = frozenset()
    #: TR304 fires when an unfiltered pattern's estimated match count reaches
    #: this many events (estimated from the graph store's per-relationship
    #: edge counts).
    scan_row_threshold: int = 10_000
    #: TR302 fires for path patterns spanning at least this many hops with no
    #: filter on either endpoint.
    unanchored_path_hops: int = 3

    @classmethod
    def default(cls) -> "AnalysisPolicy":
        return cls()

    @classmethod
    def lenient(cls) -> "AnalysisPolicy":
        """Demote every error rule to a warning (nothing gates)."""
        overrides = {
            rule: Severity.WARNING
            for rule, spec in RULES.items()
            if spec.severity is Severity.ERROR
        }
        return cls(severity_overrides=overrides)

    def effective(self, diagnostic: Diagnostic) -> Diagnostic | None:
        """Apply the policy to one diagnostic; ``None`` drops it."""
        if diagnostic.rule in self.disabled:
            return None
        override = self.severity_overrides.get(diagnostic.rule)
        if override is None or override is diagnostic.severity:
            return diagnostic
        return Diagnostic(
            rule=diagnostic.rule,
            severity=override,
            message=diagnostic.message,
            span=diagnostic.span,
            event_id=diagnostic.event_id,
            hint=diagnostic.hint,
        )


@dataclass(frozen=True)
class AnalysisReport:
    """All policy-filtered diagnostics for one query, sorted errors-first."""

    diagnostics: tuple[Diagnostic, ...] = ()
    query_text: str = ""

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.INFO)

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def rules(self) -> tuple[str, ...]:
        """The distinct rule ids present, in report order."""
        return tuple(dict.fromkeys(d.rule for d in self.diagnostics))

    def raise_for_errors(self) -> "AnalysisReport":
        """Raise :class:`~repro.errors.TBQLAnalysisError` on error diagnostics."""
        errors = self.errors
        if errors:
            summary = "; ".join(f"[{d.rule}] {d.message}" for d in errors)
            raise TBQLAnalysisError(
                f"static analysis rejected the query: {summary}", diagnostics=errors
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render(self, source_name: str | None = None) -> str:
        """Multi-line text rendering for the CLI."""
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.render(source_name) for d in self.diagnostics)


def sort_diagnostics(diagnostics: list[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Stable severity-major, source-position-minor ordering."""
    return tuple(
        sorted(
            diagnostics,
            key=lambda d: (
                d.severity.rank,
                d.span.line if d.span else 1 << 30,
                d.span.column if d.span else 1 << 30,
                d.rule,
            ),
        )
    )
