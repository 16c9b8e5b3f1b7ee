"""Static analysis for TBQL: the admission gate in front of every hunt.

The package hosts a multi-pass analyzer that runs between semantic analysis
and plan preparation / hunt registration:

* :mod:`~repro.tbql.analysis.satisfiability` — queries that can never match
  (contradictory filters, impossible orderings);
* :mod:`~repro.tbql.analysis.deadcode` — predicates and relations that add no
  selectivity;
* :mod:`~repro.tbql.analysis.cost` — shapes that execute badly, judged
  against the backends' index statistics;
* :mod:`~repro.tbql.analysis.portability` — constructs that cannot lower to
  one of the backends, found by compiling each pattern through the functions
  execution uses (:mod:`repro.tbql.compiler`).

See the README's "Static analysis & linting" section for the rule catalog.
"""

from repro.tbql.analysis.analyzer import (
    AnalysisContext,
    StaticAnalyzer,
    analyze_query,
)
from repro.tbql.analysis.diagnostics import (
    RULES,
    AnalysisPolicy,
    AnalysisReport,
    Diagnostic,
    RuleSpec,
    Severity,
)
from repro.tbql.analysis.structure import pattern_components, temporal_sink

__all__ = [
    "RULES",
    "AnalysisContext",
    "AnalysisPolicy",
    "AnalysisReport",
    "Diagnostic",
    "RuleSpec",
    "Severity",
    "StaticAnalyzer",
    "analyze_query",
    "pattern_components",
    "temporal_sink",
]
