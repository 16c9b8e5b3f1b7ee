"""Pass 4 — cross-backend portability via the pattern compilers.

Every pattern is compiled through the same functions execution uses
(:mod:`repro.tbql.compiler`: ``compile_select`` for the relational backend,
``build_path_pattern`` for the graph backend) without executing anything.
Constructs that cannot lower are diagnosed *before* a hunt is admitted instead
of failing mid-execution:

* path patterns have no SQL lowering (TR401, informational — the paper's
  design routes them to the graph backend);
* any compile exception is surfaced as TR403 with the pattern's span.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.tbql.analysis.diagnostics import Diagnostic, Severity
from repro.tbql.ast import PathPattern, Pattern
from repro.tbql.compiler import build_path_pattern, compile_select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tbql.analysis.analyzer import AnalysisContext


class PortabilityPass:
    """Emits TR401 and TR403."""

    name = "portability"

    def run(self, context: "AnalysisContext") -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for pattern in context.query.patterns:
            if isinstance(pattern, PathPattern):
                diagnostics.append(
                    Diagnostic(
                        rule="TR401",
                        severity=Severity.INFO,
                        message=(
                            f"path pattern {pattern.event_id!r} has no SQL lowering; "
                            "the query is bound to the graph backend"
                        ),
                        span=pattern.span,
                        event_id=pattern.event_id,
                        hint="use a single-hop event pattern for SQL portability",
                    )
                )
            else:
                diagnostics.extend(self._try_compile("SQL", pattern, compile_select))
            diagnostics.extend(self._try_compile("Cypher", pattern, build_path_pattern))
        return diagnostics

    @staticmethod
    def _try_compile(
        backend: str, pattern: Pattern, compile_pattern: Callable[..., object]
    ) -> list[Diagnostic]:
        try:
            compile_pattern(pattern)
        except Exception as exc:
            return [
                Diagnostic(
                    rule="TR403",
                    severity=Severity.ERROR,
                    message=(
                        f"pattern {pattern.event_id!r} fails to compile for the "
                        f"{backend} backend: {exc}"
                    ),
                    span=pattern.span,
                    event_id=pattern.event_id,
                    hint="the pattern would fail at execution time",
                )
            ]
        return []
