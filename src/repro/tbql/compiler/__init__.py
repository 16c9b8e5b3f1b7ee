"""TBQL pattern → backend data query, in one place.

Two functions per backend: one builds a pattern's windowless, unconstrained
*template* (:func:`compile_select` — a relational ``SelectQuery``;
:func:`build_path_pattern` — a graph ``PathPattern``), one attaches an
execution's time window and subject/object entity-id constraints to it
(:func:`constrain_select`, :func:`constrain_path_pattern`).
:class:`~repro.tbql.prepared.PreparedQuery` is the only product caller outside
the static analyzer's portability pass; nothing outside ``repro.tbql`` imports
this package (``scripts/check_invariants.py``).
"""

from repro.tbql.compiler.graph import build_path_pattern, constrain_path_pattern
from repro.tbql.compiler.relational import compile_select, constrain_select

__all__ = [
    "build_path_pattern",
    "compile_select",
    "constrain_path_pattern",
    "constrain_select",
]
