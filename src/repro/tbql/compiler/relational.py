"""TBQL event pattern → relational data query.

"For an event pattern, ThreatRaptor compiles it into a SQL data query which
joins entity tables with event table" (Section II-F).
:func:`compile_select` emits the pattern's *template*: a
:class:`~repro.storage.relational.query.SelectQuery` with three aliases —
``e`` (events), ``s`` (subject entities) and ``o`` (object entities) — joined
on ``e.srcid = s.id`` and ``e.dstid = o.id``, with the entity attribute
filters, the operation filter and the event-type filter pushed down onto the
respective aliases.  The template carries no time window and no entity-id
constraint: those differ per execution and are attached by
:func:`constrain_select`, the only place that knows which alias and column
each of them lands on.
"""

from __future__ import annotations

from typing import Iterable

from repro.auditing.entities import ENTITY_ATTRIBUTES
from repro.auditing.events import event_type_for_object
from repro.storage.relational.expression import Between, Column, Comparison, InList, Literal
from repro.storage.relational.query import SelectQuery
from repro.tbql.ast import EventPattern, TimeWindow
from repro.tbql.filters import filter_to_expression

#: Alias names used for the three joined tables.
EVENT_ALIAS = "e"
SUBJECT_ALIAS = "s"
OBJECT_ALIAS = "o"

_EVENT_COLUMNS = ("id", "srcid", "dstid", "optype", "starttime", "endtime", "amount")


def compile_select(pattern: EventPattern) -> SelectQuery:
    """The windowless, unconstrained select-project-join query for ``pattern``."""
    query = SelectQuery()
    query.add_table("events", EVENT_ALIAS)
    query.add_table("entities", SUBJECT_ALIAS)
    query.add_table("entities", OBJECT_ALIAS)
    query.add_join(EVENT_ALIAS, "srcid", SUBJECT_ALIAS, "id")
    query.add_join(EVENT_ALIAS, "dstid", OBJECT_ALIAS, "id")

    operations = tuple(pattern.operation.operations)
    if len(operations) == 1 and not pattern.operation.negated:
        query.add_filter(EVENT_ALIAS, Comparison(Column("optype"), "=", Literal(operations[0])))
    else:
        query.add_filter(
            EVENT_ALIAS, InList(Column("optype"), operations, negate=pattern.operation.negated)
        )
    event_type = event_type_for_object(pattern.obj.entity_type)
    query.add_filter(EVENT_ALIAS, Comparison(Column("eventtype"), "=", Literal(event_type.value)))
    entities = (
        (SUBJECT_ALIAS, "subject", pattern.subject),
        (OBJECT_ALIAS, "object", pattern.obj),
    )
    for alias, _, declaration in entities:
        entity_type = declaration.entity_type
        query.add_filter(alias, Comparison(Column("type"), "=", Literal(entity_type.value)))
        if declaration.filter is not None:
            query.add_filter(alias, filter_to_expression(declaration.filter, entity_type))

    for column in _EVENT_COLUMNS:
        query.add_output(EVENT_ALIAS, column, name=f"event.{column}")
    for alias, prefix, declaration in entities:
        query.add_output(alias, "id", name=f"{prefix}.id")
        query.add_output(alias, "type", name=f"{prefix}.type")
        for attribute in ENTITY_ATTRIBUTES[declaration.entity_type]:
            query.add_output(alias, attribute, name=f"{prefix}.{attribute}")
    return query


def constrain_select(
    template: SelectQuery,
    window: TimeWindow | None,
    subject_ids: Iterable[int] | None,
    object_ids: Iterable[int] | None,
) -> SelectQuery:
    """A copy of ``template`` with one execution's window and id constraints.

    Expressions are immutable, so copying the clause containers is enough:
    ``add_filter`` on the copy builds a new ``And`` instead of touching the
    template's.
    """
    query = SelectQuery(
        tables=list(template.tables),
        filters=dict(template.filters),
        joins=list(template.joins),
        cross_filters=list(template.cross_filters),
        projection=list(template.projection),
        distinct=template.distinct,
        order_by=list(template.order_by),
        limit=template.limit,
    )
    if window is not None:
        query.add_filter(EVENT_ALIAS, Between(Column("starttime"), window.start, window.end))
    # Entity-id constraints go on the entity alias and on the event table's
    # foreign-key column, so the relational planner can use the
    # events.srcid / events.dstid indexes directly.
    for alias, foreign_key, ids in (
        (SUBJECT_ALIAS, "srcid", subject_ids),
        (OBJECT_ALIAS, "dstid", object_ids),
    ):
        if ids is not None:
            values = tuple(sorted(set(ids)))
            query.add_filter(alias, InList(Column("id"), values))
            query.add_filter(EVENT_ALIAS, InList(Column(foreign_key), values))
    return query
