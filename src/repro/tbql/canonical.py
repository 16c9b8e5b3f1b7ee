"""Canonical TBQL query form — the dedup key for corpus-scale hunting.

Synthesized queries from overlapping OSCTI reports frequently describe the
same threat behavior: the same advisory republished by two feeds, a defanged
rendition of the same attack chain, a walk-through that differs only in the
entity identifiers the synthesizer happened to assign.  Registering each as
its own standing hunt would multiply per-batch evaluation cost for zero new
coverage.

:func:`canonicalize_query` rewrites a query into a stable canonical form:

* entity identifiers are renamed in first-use order with their type prefix
  (``p1``, ``f1``, ``i1``, …) and event ids are renumbered ``evt1``..``evtN``
  in pattern order;
* filter comparisons inside ``and``/``or`` combinators are sorted;
* ``with``-clause temporal relations are rewritten to ``before`` form and
  sorted, as are attribute relations.

Pattern order is preserved — it carries the temporal semantics of the attack
chain, so two reports describing the steps in a different order are *not*
equivalent.

:func:`canonical_query_key` renders the canonical form to text and appends
one ``event id, has window`` line per pattern, yielding one string under
which semantically equivalent queries collide — and therefore share one
:class:`~repro.tbql.prepared.PreparedQuery` and one standing hunt.
"""

from __future__ import annotations

from dataclasses import replace

from repro.auditing.entities import EntityType
from repro.storage.relational.expression import unescape_like
from repro.tbql.ast import (
    AttributeRelation,
    EntityDeclaration,
    FilterExpression,
    FilterOperator,
    Query,
    ReturnItem,
    TemporalRelation,
)
from repro.tbql.filters import _is_wildcard
from repro.tbql.formatter import format_query

#: Identifier prefixes per entity type, matching the synthesizer's convention.
_IDENTIFIER_PREFIX = {
    EntityType.PROCESS: "p",
    EntityType.FILE: "f",
    EntityType.NETWORK: "i",
}


def _comparison_sort_key(expression: FilterExpression) -> tuple:
    if expression.comparison is not None:
        comparison = expression.comparison
        return (0, comparison.attribute, comparison.operator.value, str(comparison.value))
    return (1, expression.combinator, tuple(_comparison_sort_key(c) for c in expression.children))


def _sorted_filter(expression: FilterExpression | None) -> FilterExpression | None:
    """Sort combinator children and normalize operators.

    ``like`` is rewritten to ``=`` only where the two are provably
    equivalent: over a *wildcard* string value execution compiles both to the
    same ``Like`` expression
    (:func:`repro.tbql.filters.comparison_to_expression`), and over a
    *case-invariant* value (no letters — IPs, ids) that spells itself (no
    ``\\\\`` escape, which ``Like`` reads as one backslash and ``=`` as two)
    ``Like``'s case-insensitive exact match cannot differ from equality.
    ``=`` is what the parser produces for the shorthand form, so the canonical
    AST round-trips through ``format_query`` → ``parse_query`` unchanged.  A
    ``like`` over a non-wildcard value *with* letters is left alone — there
    the operator does change semantics (``Like`` matches case-insensitively,
    ``=`` does not), so rewriting it would alter what the registered hunt
    matches.
    """
    if expression is None:
        return None
    if expression.comparison is not None:
        comparison = expression.comparison
        value = comparison.value
        rewritable = _is_wildcard(value) or (
            isinstance(value, str)
            and value.lower() == value.upper()
            and unescape_like(value) == value
        )
        if comparison.operator is FilterOperator.LIKE and rewritable:
            return replace(
                expression, comparison=replace(comparison, operator=FilterOperator.EQ)
            )
        return expression
    children = tuple(
        sorted((_sorted_filter(child) for child in expression.children), key=_comparison_sort_key)
    )
    return replace(expression, children=children)


def _event_sort_key(event_id: str) -> tuple[int, str]:
    return (len(event_id), event_id)


class _Renamer:
    """Stable first-use renaming of entity identifiers."""

    def __init__(self) -> None:
        self._renamed: dict[str, str] = {}
        self._counters: dict[str, int] = {}

    def declaration(self, declaration: EntityDeclaration) -> EntityDeclaration:
        new_id = self._renamed.get(declaration.identifier)
        if new_id is None:
            prefix = _IDENTIFIER_PREFIX.get(declaration.entity_type, "x")
            self._counters[prefix] = self._counters.get(prefix, 0) + 1
            new_id = f"{prefix}{self._counters[prefix]}"
            self._renamed[declaration.identifier] = new_id
        return replace(
            declaration, identifier=new_id, filter=_sorted_filter(declaration.filter)
        )

    def identifier(self, identifier: str) -> str:
        return self._renamed.get(identifier, identifier)


def canonicalize_query(query: Query) -> Query:
    """Return an equivalent query in canonical (dedup-stable) form."""
    renamer = _Renamer()
    event_rename: dict[str, str] = {}
    patterns = []
    for index, pattern in enumerate(query.patterns, start=1):
        new_event_id = f"evt{index}"
        event_rename[pattern.event_id] = new_event_id
        patterns.append(
            replace(
                pattern,
                subject=renamer.declaration(pattern.subject),
                obj=renamer.declaration(pattern.obj),
                event_id=new_event_id,
            )
        )

    temporal: list[TemporalRelation] = []
    for relation in query.temporal_relations:
        normalized = relation.normalized()
        temporal.append(
            TemporalRelation(
                left=event_rename.get(normalized.left, normalized.left),
                relation="before",
                right=event_rename.get(normalized.right, normalized.right),
            )
        )
    temporal.sort(key=lambda r: (_event_sort_key(r.left), _event_sort_key(r.right)))

    attributes: list[AttributeRelation] = []
    for relation in query.attribute_relations:
        attributes.append(
            replace(
                relation,
                left_event=event_rename.get(relation.left_event, relation.left_event),
                right_event=event_rename.get(relation.right_event, relation.right_event),
            )
        )
    attributes.sort(
        key=lambda r: (
            _event_sort_key(r.left_event),
            r.left_attribute,
            _event_sort_key(r.right_event),
            r.right_attribute,
        )
    )

    return_items = [
        ReturnItem(identifier=renamer.identifier(item.identifier), attribute=item.attribute)
        for item in query.return_items
    ]

    return Query(
        patterns=patterns,
        temporal_relations=temporal,
        attribute_relations=attributes,
        return_items=return_items,
        distinct=query.distinct,
    )


def render_canonical_key(canonical: Query) -> str:
    """The dedup key for an *already canonical* query.

    The key is the canonical form rendered to TBQL text, plus per pattern its
    event id and whether it declares a time window.  Keys are persisted in
    checkpoints, so the format is frozen — including the constant
    ``False,False`` (no subject / object id constraints) left over from the
    plan-cache key this line used to share.  Callers that hold the canonical
    form (the corpus planner registers it) use this directly so the AST
    rewrite runs once, not twice.
    """
    shapes = ";".join(
        f"{pattern.event_id},{pattern.window is not None},False,False"
        for pattern in canonical.patterns
    )
    return f"{format_query(canonical)}\n-- shapes: {shapes}"


def canonical_query_key(query: Query) -> str:
    """One string under which semantically equivalent queries collide."""
    return render_canonical_key(canonicalize_query(query))


__all__ = ["canonical_query_key", "canonicalize_query", "render_canonical_key"]
