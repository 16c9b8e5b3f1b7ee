"""Pass 1 — satisfiability via per-attribute constraint propagation.

Conjunctive attribute filters are folded into per-``(identifier, attribute)``
constraint domains (equalities, exclusions, LIKE patterns, ordered bounds) and
checked for contradictions; the ``with`` clause's temporal graph is checked
for cycles and for time windows that exclude the declared event ordering; and
attribute relations are checked for irreflexive self-comparisons and mutually
contradictory pairs.  Every finding here is a query that can never match — an
admitted one would burn standing-query evaluation on every micro-batch
forever — so the rules in this pass default to :attr:`Severity.ERROR`.

Filters containing ``or`` are skipped by the constraint folding: a
disjunction's branches are alternatives, not simultaneous constraints, so
propagating them would produce false positives.  This keeps the pass sound
(everything reported really is unsatisfiable) at the cost of completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.storage.relational.expression import like_regex
from repro.tbql.ast import (
    AttributeComparison,
    EntityDeclaration,
    FilterOperator,
    SourceSpan,
)
from repro.tbql.analysis.diagnostics import Diagnostic, Severity
from repro.tbql.analysis.structure import before_edges, temporal_cycle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tbql.analysis.analyzer import AnalysisContext

Value = Union[str, int, float]

#: Operator pairs (after normalizing both relations to the same operand
#: order) that can never hold simultaneously between the same two operands.
_CONTRADICTORY_OPERATOR_PAIRS = frozenset(
    frozenset(pair)
    for pair in (
        (FilterOperator.EQ, FilterOperator.NEQ),
        (FilterOperator.EQ, FilterOperator.LT),
        (FilterOperator.EQ, FilterOperator.GT),
        (FilterOperator.LT, FilterOperator.GT),
        (FilterOperator.LT, FilterOperator.GTE),
        (FilterOperator.LTE, FilterOperator.GT),
    )
)

_FLIPPED = {
    FilterOperator.EQ: FilterOperator.EQ,
    FilterOperator.NEQ: FilterOperator.NEQ,
    FilterOperator.LT: FilterOperator.GT,
    FilterOperator.LTE: FilterOperator.GTE,
    FilterOperator.GT: FilterOperator.LT,
    FilterOperator.GTE: FilterOperator.LTE,
}


def is_wildcard(value: object) -> bool:
    """Whether ``value`` is a string the filter layer matches with LIKE."""
    return isinstance(value, str) and ("%" in value or "_" in value)


def is_like(comparison: AttributeComparison) -> bool:
    """Whether the comparison uses LIKE semantics (mirrors ``tbql.filters``)."""
    return comparison.operator is FilterOperator.LIKE or is_wildcard(comparison.value)


def like_matches(pattern: str, value: str) -> bool:
    """Whether ``value`` matches the (case-insensitive) LIKE ``pattern``."""
    return like_regex(pattern).match(str(value)) is not None


def _literal_parts(pattern: str) -> tuple[str, str]:
    """The literal prefix and suffix of a LIKE pattern (around the wildcards)."""
    first = len(pattern)
    last = -1
    for index, char in enumerate(pattern):
        if char in "%_":
            first = min(first, index)
            last = index
    if last == -1:
        return pattern, pattern
    return pattern[:first], pattern[last + 1 :]


def likes_are_disjoint(first: str, second: str) -> bool:
    """Whether no string can match both LIKE patterns (sound, not complete).

    Any common match must start with both literal prefixes and end with both
    literal suffixes, so one prefix must extend the other (same for the
    suffixes).  ``%`` absorbs anything in between, which is why only the
    anchored ends are decidable cheaply.
    """
    if "%" not in first and "_" not in first:
        return not like_matches(second, first)
    if "%" not in second and "_" not in second:
        return not like_matches(first, second)
    first_prefix, first_suffix = _literal_parts(first)
    second_prefix, second_suffix = _literal_parts(second)
    shorter, longer = sorted((first_prefix.lower(), second_prefix.lower()), key=len)
    if not longer.startswith(shorter):
        return True
    shorter, longer = sorted((first_suffix.lower(), second_suffix.lower()), key=len)
    return not longer.endswith(shorter)


@dataclass
class _Constraint:
    """One folded conjunctive constraint on an ``(identifier, attribute)``."""

    operator: FilterOperator
    value: Value
    span: SourceSpan | None
    like: bool


@dataclass
class _Domain:
    """All conjunctive constraints folded onto one ``(identifier, attribute)``."""

    constraints: list[_Constraint] = field(default_factory=list)

    def equalities(self) -> list[_Constraint]:
        return [c for c in self.constraints if c.operator is FilterOperator.EQ and not c.like]

    def exclusions(self) -> list[_Constraint]:
        return [c for c in self.constraints if c.operator is FilterOperator.NEQ and not c.like]

    def likes(self) -> list[_Constraint]:
        return [c for c in self.constraints if c.like and c.operator is not FilterOperator.NEQ]

    def not_likes(self) -> list[_Constraint]:
        return [c for c in self.constraints if c.like and c.operator is FilterOperator.NEQ]

    def bounds(self) -> list[_Constraint]:
        ordered = (
            FilterOperator.LT,
            FilterOperator.LTE,
            FilterOperator.GT,
            FilterOperator.GTE,
        )
        return [c for c in self.constraints if c.operator in ordered and not c.like]


def _has_disjunction(declaration: EntityDeclaration) -> bool:
    if declaration.filter is None:
        return False

    def walk(expression) -> bool:
        if expression.combinator == "or":
            return True
        return any(walk(child) for child in expression.children)

    return walk(declaration.filter)


def fold_domains(context: "AnalysisContext") -> dict[tuple[str, str], _Domain]:
    """Fold every pure-conjunctive filter into per-(identifier, attribute) domains.

    Entity identifier reuse means the declarations refer to the *same* entity,
    so constraints from every declaration of an identifier conjoin.  The same
    declaration object appearing in several patterns (as synthesis emits) is
    folded once.
    """
    domains: dict[tuple[str, str], _Domain] = {}
    seen_declarations: set[int] = set()
    for pattern in context.query.patterns:
        for declaration in (pattern.subject, pattern.obj):
            if declaration.filter is None or id(declaration) in seen_declarations:
                continue
            seen_declarations.add(id(declaration))
            if _has_disjunction(declaration):
                continue
            for comparison in declaration.filter.comparisons():
                attribute = comparison.attribute or context.default_attribute(
                    declaration.entity_type
                )
                domain = domains.setdefault((declaration.identifier, attribute), _Domain())
                domain.constraints.append(
                    _Constraint(
                        operator=comparison.operator,
                        value=comparison.value,
                        span=comparison.span,
                        like=is_like(comparison),
                    )
                )
    return domains


class SatisfiabilityPass:
    """Emits TR101–TR106."""

    name = "satisfiability"

    def run(self, context: "AnalysisContext") -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        domains = fold_domains(context)
        for (identifier, attribute), domain in domains.items():
            diagnostics.extend(self._check_domain(identifier, attribute, domain))
        diagnostics.extend(self._check_windows(context))
        diagnostics.extend(self._check_temporal_cycle(context))
        diagnostics.extend(self._check_attribute_relations(context))
        return diagnostics

    # -- per-attribute domains ---------------------------------------------------

    def _check_domain(
        self, identifier: str, attribute: str, domain: _Domain
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        where = f"{identifier}.{attribute}"
        equalities = domain.equalities()

        # TR102: two different required values, or a required value that is
        # also excluded.
        for first, second in zip(equalities, equalities[1:]):
            if first.value != second.value:
                diagnostics.append(
                    Diagnostic(
                        rule="TR102",
                        severity=Severity.ERROR,
                        message=(
                            f"{where} must equal both {first.value!r} and "
                            f"{second.value!r}; no event can satisfy the filter"
                        ),
                        span=second.span or first.span,
                        hint="remove one of the conflicting equality filters",
                    )
                )
        for excluded in domain.exclusions():
            for equal in equalities:
                if equal.value == excluded.value:
                    diagnostics.append(
                        Diagnostic(
                            rule="TR102",
                            severity=Severity.ERROR,
                            message=(
                                f"{where} is required to equal {equal.value!r} "
                                f"but also to differ from it"
                            ),
                            span=excluded.span or equal.span,
                            hint="drop either the equality or the exclusion",
                        )
                    )

        # TR101: contradictory ordered bounds, or an equality outside them.
        diagnostics.extend(self._check_bounds(where, domain, equalities))

        # TR103: LIKE patterns that cannot all match, or that exclude a
        # required equality value.
        diagnostics.extend(self._check_likes(where, domain, equalities))
        return diagnostics

    @staticmethod
    def _check_bounds(
        where: str, domain: _Domain, equalities: list[_Constraint]
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        lower: _Constraint | None = None  # strongest "greater than" constraint
        upper: _Constraint | None = None  # strongest "less than" constraint
        for constraint in domain.bounds():
            if constraint.operator in (FilterOperator.GT, FilterOperator.GTE):
                if lower is None or _tighter_lower(constraint, lower):
                    lower = constraint
            else:
                if upper is None or _tighter_upper(constraint, upper):
                    upper = constraint
        if lower is not None and upper is not None:
            try:
                empty = lower.value > upper.value or (
                    lower.value == upper.value
                    and (
                        lower.operator is FilterOperator.GT
                        or upper.operator is FilterOperator.LT
                    )
                )
            except TypeError:
                empty = False
            if empty:
                diagnostics.append(
                    Diagnostic(
                        rule="TR101",
                        severity=Severity.ERROR,
                        message=(
                            f"{where} is constrained to the empty range "
                            f"{lower.operator.value} {lower.value!r} and "
                            f"{upper.operator.value} {upper.value!r}"
                        ),
                        span=upper.span or lower.span,
                        hint="widen or remove one of the range bounds",
                    )
                )
        for equal in equalities:
            for bound in (lower, upper):
                if bound is None:
                    continue
                try:
                    satisfied = _bound_satisfied(equal.value, bound)
                except TypeError:
                    continue
                if not satisfied:
                    diagnostics.append(
                        Diagnostic(
                            rule="TR101",
                            severity=Severity.ERROR,
                            message=(
                                f"{where} = {equal.value!r} violates the bound "
                                f"{bound.operator.value} {bound.value!r}"
                            ),
                            span=equal.span or bound.span,
                            hint="align the equality with the range bound",
                        )
                    )
        return diagnostics

    @staticmethod
    def _check_likes(
        where: str, domain: _Domain, equalities: list[_Constraint]
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        likes = domain.likes()
        for constraint in likes:
            if constraint.value == "":
                diagnostics.append(
                    Diagnostic(
                        rule="TR103",
                        severity=Severity.ERROR,
                        message=(
                            f"{where} is matched against an empty LIKE pattern, "
                            "which no stored attribute value matches"
                        ),
                        span=constraint.span,
                        hint="supply a non-empty pattern such as '%name%'",
                    )
                )
        for equal in equalities:
            if not isinstance(equal.value, str):
                continue
            for constraint in likes:
                if not like_matches(str(constraint.value), equal.value):
                    diagnostics.append(
                        Diagnostic(
                            rule="TR103",
                            severity=Severity.ERROR,
                            message=(
                                f"{where} = {equal.value!r} can never match the "
                                f"required LIKE pattern {constraint.value!r}"
                            ),
                            span=equal.span or constraint.span,
                            hint="make the equality value match the pattern",
                        )
                    )
            for constraint in domain.not_likes():
                if like_matches(str(constraint.value), equal.value):
                    diagnostics.append(
                        Diagnostic(
                            rule="TR103",
                            severity=Severity.ERROR,
                            message=(
                                f"{where} = {equal.value!r} is excluded by the "
                                f"negated LIKE pattern {constraint.value!r}"
                            ),
                            span=equal.span or constraint.span,
                            hint="drop either the equality or the exclusion",
                        )
                    )
        for index, first in enumerate(likes):
            for second in likes[index + 1 :]:
                if likes_are_disjoint(str(first.value), str(second.value)):
                    diagnostics.append(
                        Diagnostic(
                            rule="TR103",
                            severity=Severity.ERROR,
                            message=(
                                f"{where} cannot match both LIKE patterns "
                                f"{first.value!r} and {second.value!r}"
                            ),
                            span=second.span or first.span,
                            hint="the patterns have incompatible anchored text",
                        )
                    )
        return diagnostics

    # -- windows and temporal graph ----------------------------------------------

    @staticmethod
    def _check_windows(context: "AnalysisContext") -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for pattern in context.query.patterns:
            window = pattern.window
            if window is not None and window.end < window.start:
                diagnostics.append(
                    Diagnostic(
                        rule="TR105",
                        severity=Severity.ERROR,
                        message=(
                            f"event {pattern.event_id!r}: time window "
                            f"[{window.start}, {window.end}] is empty"
                        ),
                        span=pattern.span,
                        event_id=pattern.event_id,
                        hint="a window's end must not precede its start",
                    )
                )
        for relation in before_edges(context.query):
            earlier = context.query.pattern_by_event_id(relation.left)
            later = context.query.pattern_by_event_id(relation.right)
            if earlier is None or later is None:
                continue
            if earlier.window is None or later.window is None:
                continue
            # `left before right` needs left.endtime <= right.starttime, but
            # windows bound each pattern's starttime: left starts at or after
            # its window's start, so left cannot end before it either.
            if earlier.window.start > later.window.end:
                diagnostics.append(
                    Diagnostic(
                        rule="TR105",
                        severity=Severity.ERROR,
                        message=(
                            f"{relation.left!r} is ordered before {relation.right!r} "
                            f"but its window starts at {earlier.window.start}, after "
                            f"{relation.right!r}'s window ends at {later.window.end}"
                        ),
                        span=relation.span,
                        event_id=relation.left,
                        hint="the windows contradict the declared event ordering",
                    )
                )
        return diagnostics

    @staticmethod
    def _check_temporal_cycle(context: "AnalysisContext") -> list[Diagnostic]:
        cycle = temporal_cycle(context.query)
        if cycle is None:
            return []
        edges = {(relation.left, relation.right) for relation in before_edges(context.query)}
        span = None
        for relation in context.query.temporal_relations:
            normalized = relation.normalized()
            if (normalized.left, normalized.right) in edges and normalized.left in cycle:
                span = relation.span
                break
        return [
            Diagnostic(
                rule="TR104",
                severity=Severity.ERROR,
                message=(
                    "temporal relations form a cycle "
                    f"({' -> '.join(cycle)}); the ordering is contradictory"
                ),
                span=span,
                event_id=cycle[0],
                hint="remove one relation to break the cycle",
            )
        ]

    # -- attribute relations -------------------------------------------------------

    @staticmethod
    def _check_attribute_relations(context: "AnalysisContext") -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        irreflexive = (FilterOperator.NEQ, FilterOperator.LT, FilterOperator.GT)
        grouped: dict[tuple[str, str, str, str], list[tuple[FilterOperator, object]]] = {}
        for relation in context.query.attribute_relations:
            left = (relation.left_event, relation.left_attribute)
            right = (relation.right_event, relation.right_attribute)
            if left == right:
                if relation.operator in irreflexive:
                    diagnostics.append(
                        Diagnostic(
                            rule="TR106",
                            severity=Severity.ERROR,
                            message=(
                                f"{relation.left_event}.{relation.left_attribute} "
                                f"{relation.operator.value} itself can never hold"
                            ),
                            span=relation.span,
                            event_id=relation.left_event,
                            hint="a value always equals itself",
                        )
                    )
                continue
            if left <= right:
                key = left + right
                operator = relation.operator
            else:
                key = right + left
                operator = _FLIPPED[relation.operator]
            grouped.setdefault(key, []).append((operator, relation))
        for key, entries in grouped.items():
            operators = {operator for operator, _ in entries}
            for pair in _CONTRADICTORY_OPERATOR_PAIRS:
                if pair <= operators:
                    first, second = sorted(pair, key=lambda op: op.value)
                    anchor = entries[-1][1]
                    diagnostics.append(
                        Diagnostic(
                            rule="TR106",
                            severity=Severity.ERROR,
                            message=(
                                f"{key[0]}.{key[1]} is related to {key[2]}.{key[3]} "
                                f"by both {first.value!r} and {second.value!r}; the "
                                "relations are contradictory"
                            ),
                            span=anchor.span,
                            event_id=key[0],
                            hint="keep only one of the conflicting relations",
                        )
                    )
                    break
        return diagnostics


def _tighter_lower(candidate: _Constraint, current: _Constraint) -> bool:
    try:
        if candidate.value != current.value:
            return bool(candidate.value > current.value)
    except TypeError:
        return False
    return (
        candidate.operator is FilterOperator.GT and current.operator is FilterOperator.GTE
    )


def _tighter_upper(candidate: _Constraint, current: _Constraint) -> bool:
    try:
        if candidate.value != current.value:
            return bool(candidate.value < current.value)
    except TypeError:
        return False
    return (
        candidate.operator is FilterOperator.LT and current.operator is FilterOperator.LTE
    )


def _bound_satisfied(value: Value, bound: _Constraint) -> bool:
    if bound.operator is FilterOperator.GT:
        return value > bound.value
    if bound.operator is FilterOperator.GTE:
        return value >= bound.value
    if bound.operator is FilterOperator.LT:
        return value < bound.value
    return value <= bound.value
