"""Compilation of TBQL event patterns into relational data queries.

"For an event pattern, ThreatRaptor compiles it into a SQL data query which
joins entity tables with event table" (Section II-F).  The compiler emits a
:class:`~repro.storage.relational.query.SelectQuery` with three aliases —
``e`` (events), ``s`` (subject entities) and ``o`` (object entities) — joined
on ``e.srcid = s.id`` and ``e.dstid = o.id``, and pushes the entity attribute
filters, the operation filter, the event-type filter and the optional time
window down onto the respective aliases.

The entity-id constraints the execution scheduler propagates from earlier,
more selective patterns are attached to the compiled query per execution by
:meth:`repro.tbql.prepared.PreparedQuery.relational_query`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.auditing.entities import ENTITY_ATTRIBUTES, EntityType
from repro.auditing.events import event_type_for_object
from repro.storage.relational.expression import Column, Comparison, InList, Literal
from repro.storage.relational.expression import Between
from repro.storage.relational.query import SelectQuery
from repro.tbql.ast import EventPattern
from repro.tbql.filters import filter_to_expression

#: Alias names used for the three joined tables.
EVENT_ALIAS = "e"
SUBJECT_ALIAS = "s"
OBJECT_ALIAS = "o"


@dataclass(frozen=True)
class CompiledEventPattern:
    """The compiled form of one event pattern."""

    pattern: EventPattern
    query: SelectQuery

    @property
    def event_id(self) -> str:
        return self.pattern.event_id


class SQLCompiler:
    """Compiles TBQL event patterns into relational select-project-join queries."""

    def compile(self, pattern: EventPattern) -> CompiledEventPattern:
        """Compile ``pattern`` into a relational query."""
        query = SelectQuery()
        query.add_table("events", EVENT_ALIAS)
        query.add_table("entities", SUBJECT_ALIAS)
        query.add_table("entities", OBJECT_ALIAS)
        query.add_join(EVENT_ALIAS, "srcid", SUBJECT_ALIAS, "id")
        query.add_join(EVENT_ALIAS, "dstid", OBJECT_ALIAS, "id")

        self._add_event_filters(query, pattern)
        self._add_entity_filters(query, SUBJECT_ALIAS, pattern.subject.entity_type, pattern)
        self._add_entity_filters(query, OBJECT_ALIAS, pattern.obj.entity_type, pattern, is_object=True)

        self._add_projection(query, pattern)
        return CompiledEventPattern(pattern=pattern, query=query)

    # -- filter construction -------------------------------------------------------

    def _add_event_filters(self, query: SelectQuery, pattern: EventPattern) -> None:
        operations = tuple(pattern.operation.operations)
        if len(operations) == 1 and not pattern.operation.negated:
            query.add_filter(
                EVENT_ALIAS, Comparison(Column("optype"), "=", Literal(operations[0]))
            )
        else:
            query.add_filter(
                EVENT_ALIAS,
                InList(Column("optype"), operations, negate=pattern.operation.negated),
            )
        event_type = event_type_for_object(pattern.obj.entity_type)
        query.add_filter(
            EVENT_ALIAS, Comparison(Column("eventtype"), "=", Literal(event_type.value))
        )
        if pattern.window is not None:
            query.add_filter(
                EVENT_ALIAS, Between(Column("starttime"), pattern.window.start, pattern.window.end)
            )

    def _add_entity_filters(
        self,
        query: SelectQuery,
        alias: str,
        entity_type: EntityType,
        pattern: EventPattern,
        is_object: bool = False,
    ) -> None:
        query.add_filter(alias, Comparison(Column("type"), "=", Literal(entity_type.value)))
        declaration = pattern.obj if is_object else pattern.subject
        if declaration.filter is not None:
            query.add_filter(alias, filter_to_expression(declaration.filter, entity_type))

    # -- projection -------------------------------------------------------------------

    def _add_projection(self, query: SelectQuery, pattern: EventPattern) -> None:
        for column in ("id", "srcid", "dstid", "optype", "starttime", "endtime", "amount"):
            query.add_output(EVENT_ALIAS, column, name=f"event.{column}")
        for alias, declaration in ((SUBJECT_ALIAS, pattern.subject), (OBJECT_ALIAS, pattern.obj)):
            prefix = "subject" if alias == SUBJECT_ALIAS else "object"
            query.add_output(alias, "id", name=f"{prefix}.id")
            query.add_output(alias, "type", name=f"{prefix}.type")
            for attribute in ENTITY_ATTRIBUTES[declaration.entity_type]:
                query.add_output(alias, attribute, name=f"{prefix}.{attribute}")
