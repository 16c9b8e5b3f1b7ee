"""Cypher text rendering for graph path patterns.

For a variable-length event path pattern, ThreatRaptor "compiles it into a
Cypher data query by leveraging Cypher's path pattern syntax".  This module
renders :class:`~repro.storage.graph.pattern.PathPattern` objects as Cypher
``MATCH`` statements.  Nothing executes the text, and it shows the structural
part of a pattern only (labels, final-hop type, hop range, window — not the
attribute or operation-set predicates): it is rendered on demand for the
query-conciseness experiment (EXP-SYNTH) and the tests, while execution goes
through :class:`~repro.storage.graph.planner.CostGuidedPathMatcher`.
"""

from __future__ import annotations

from typing import Any

from repro.storage.graph.pattern import PathPattern

#: Map from node label to the Cypher label identifier used in rendered text.
_LABEL_NAMES = {"process": "Process", "file": "File", "network": "Network"}


def _render_properties(properties: dict[str, Any]) -> str:
    if not properties:
        return ""
    rendered = ", ".join(f"{key}: {_render_value(value)}" for key, value in properties.items())
    return " {" + rendered + "}"


def _render_value(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "\\'")
        return f"'{escaped}'"
    return str(value)


def render_path_pattern(
    pattern: PathPattern,
    source_variable: str = "p",
    target_variable: str = "f",
    edge_variable: str = "r",
    pretty: bool = True,
) -> str:
    """Render a path pattern as a Cypher MATCH ... RETURN statement.

    Variable-length patterns render the hop-count range in Cypher's ``*min..max``
    syntax on the relationship; single-hop patterns render a plain typed
    relationship.
    """
    separator = "\n" if pretty else " "

    source_label = _LABEL_NAMES.get(pattern.source.label or "", "")
    target_label = _LABEL_NAMES.get(pattern.target.label or "", "")
    source_text = f"({source_variable}{':' + source_label if source_label else ''}" + _render_properties(pattern.source.properties) + ")"
    target_text = f"({target_variable}{':' + target_label if target_label else ''}" + _render_properties(pattern.target.properties) + ")"

    relationship = pattern.final_edge.relationship
    type_text = f":{relationship.upper()}" if relationship else ""

    if pattern.max_length == 1:
        relationship_text = f"-[{edge_variable}{type_text}]->"
        match_clause = f"MATCH {source_text}{relationship_text}{target_text}"
    else:
        # Cypher models "any hops then a typed final hop" as a variable-length
        # anonymous segment followed by the typed final relationship.
        intermediate = f"-[*{max(0, pattern.min_length - 1)}..{pattern.max_length - 1}]->"
        final = f"-[{edge_variable}{type_text}]->"
        match_clause = (
            f"MATCH path = {source_text}{intermediate}(){final}{target_text}"
        )

    clauses = [match_clause]
    window = pattern.final_edge.window
    if window is not None:
        clauses.append(
            f"WHERE {edge_variable}.starttime >= {window[0]} "
            f"AND {edge_variable}.starttime <= {window[1]}"
        )

    return_items = [source_variable, target_variable, edge_variable]
    clauses.append("RETURN " + ", ".join(return_items))
    return separator.join(clauses) + ";"

