"""Filter expressions evaluated by the relational engine.

The relational backend needs a small but complete expression language to
express TBQL attribute filters after compilation: comparisons (including SQL
``LIKE`` with ``%`` wildcards), boolean combinators, membership tests and
column-to-column comparisons for join conditions.  Expressions are plain
objects with an ``evaluate(row)`` method plus enough introspection for the
planner to extract indexable predicates; :mod:`repro.storage.sql.render`
renders them as SQL text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import QueryError

Row = Mapping[str, Any]

LIKE_ESCAPE_CHAR = "\\"


def escape_like(value: str) -> str:
    """Escape a literal string for use inside a ``LIKE`` pattern.

    Backslash is the escape character: ``\\%``, ``\\_`` and ``\\\\`` denote a
    literal percent, underscore and backslash.  The convention is honored
    identically by :meth:`Like.evaluate` and the SQL renderer (which emits an
    ``ESCAPE '\\'`` clause whenever the pattern contains an escape).
    """
    return (
        value.replace(LIKE_ESCAPE_CHAR, LIKE_ESCAPE_CHAR * 2)
        .replace("%", LIKE_ESCAPE_CHAR + "%")
        .replace("_", LIKE_ESCAPE_CHAR + "_")
    )


def like_tokens(pattern: str) -> list[tuple[bool, str]]:
    """Tokenize a ``LIKE`` pattern into ``(is_wildcard, char)`` pairs.

    The parse is lenient: a backslash followed by ``%``, ``_`` or ``\\``
    escapes that character; any other backslash is an ordinary literal (so
    untouched Windows paths keep matching).  Wildcard tokens are ``%`` (any
    run) and ``_`` (any one character).
    """
    tokens: list[tuple[bool, str]] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if (
            char == LIKE_ESCAPE_CHAR
            and index + 1 < len(pattern)
            and pattern[index + 1] in ("%", "_", LIKE_ESCAPE_CHAR)
        ):
            tokens.append((False, pattern[index + 1]))
            index += 2
            continue
        tokens.append((char in ("%", "_"), char))
        index += 1
    return tokens


@lru_cache(maxsize=1024)
def like_regex(pattern: str) -> re.Pattern[str]:
    """The compiled regex for a ``LIKE`` pattern, built once per distinct pattern.

    Backslash-escaped wildcards (``\\%``, ``\\_``, ``\\\\``) match literally
    while bare ``%``/``_`` translate to their regex equivalents.  Like SQL,
    ``%`` and ``_`` also match a newline (``DOTALL``), and the match must
    end at the end of the value (``\\Z``; ``$`` would also accept a value
    that only differs by a trailing newline).  Use with ``.match``.
    """
    parts: list[str] = []
    for is_wildcard, char in like_tokens(pattern):
        if is_wildcard:
            parts.append(".*" if char == "%" else ".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts) + r"\Z", re.IGNORECASE | re.DOTALL)


def like_has_wildcards(pattern: str) -> bool:
    """True when the pattern contains an unescaped ``%`` or ``_`` wildcard."""
    return any(is_wildcard for is_wildcard, _ in like_tokens(pattern))


def unescape_like(pattern: str) -> str:
    """The literal text of a wildcard-free ``LIKE`` pattern (escapes removed)."""
    return "".join(char for _, char in like_tokens(pattern))


def canonical_like_pattern(pattern: str) -> str:
    """Re-emit a pattern in strict canonical form from its parsed tokens.

    Literal ``%``, ``_`` and ``\\`` characters come out backslash-escaped and
    everything else bare, so the result is unambiguous regardless of how
    lenient the input spelling was.  The SQL renderer emits this form (with an
    ``ESCAPE`` clause when it contains a backslash) so sqlite's strict escape
    semantics agree with :meth:`Like.evaluate`.
    """
    out: list[str] = []
    for is_wildcard, char in like_tokens(pattern):
        if not is_wildcard and char in ("%", "_", LIKE_ESCAPE_CHAR):
            out.append(LIKE_ESCAPE_CHAR + char)
        else:
            out.append(char)
    return "".join(out)


class Expression:
    """Base class for all filter expressions."""

    def evaluate(self, row: Row) -> Any:
        """Evaluate the expression against one row."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names referenced by the expression."""
        return set()

    # -- combinators -------------------------------------------------------

    def __and__(self, other: "Expression") -> "Expression":
        return And([self, other])

    def __or__(self, other: "Expression") -> "Expression":
        return Or([self, other])

    def __invert__(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True)
class Column(Expression):
    """Reference to a column of the current row."""

    name: str

    def evaluate(self, row: Row) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise QueryError(f"row has no column {self.name!r}") from None

    def columns(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row) -> Any:
        return self.value


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison between two sub-expressions."""

    left: Expression
    operator: str
    right: Expression

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS:
            raise QueryError(f"unsupported comparison operator {self.operator!r}")

    def evaluate(self, row: Row) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return False
        # Mixed numeric/string operands (e.g. an int column compared against a
        # string literal) are compared as strings, mirroring lenient SQL casts.
        if isinstance(left, str) != isinstance(right, str):
            left, right = str(left), str(right)
        try:
            return bool(_COMPARATORS[self.operator](left, right))
        except TypeError:
            return bool(_COMPARATORS[self.operator](str(left), str(right)))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Like(Expression):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (any one char) wildcards."""

    operand: Expression
    pattern: str
    negate: bool = False
    #: :func:`like_regex` of ``pattern``, looked up once at construction.
    regex: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "regex", like_regex(self.pattern))

    def evaluate(self, row: Row) -> bool:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        matched = self.regex.match(str(value)) is not None
        return not matched if self.negate else matched

    def columns(self) -> set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class InList(Expression):
    """Membership test against a list of constant values."""

    operand: Expression
    values: tuple[Any, ...]
    negate: bool = False

    def evaluate(self, row: Row) -> bool:
        value = self.operand.evaluate(row)
        contained = value in self.values
        return not contained if self.negate else contained

    def columns(self) -> set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class Between(Expression):
    """Inclusive range test, used for time-window filters."""

    operand: Expression
    low: Any
    high: Any

    def evaluate(self, row: Row) -> bool:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        return self.low <= value <= self.high

    def columns(self) -> set[str]:
        return self.operand.columns()


class And(Expression):
    """Logical conjunction of sub-expressions."""

    def __init__(self, operands: Iterable[Expression]) -> None:
        self.operands: tuple[Expression, ...] = tuple(operands)

    def evaluate(self, row: Row) -> bool:
        return all(operand.evaluate(row) for operand in self.operands)

    def columns(self) -> set[str]:
        referenced: set[str] = set()
        for operand in self.operands:
            referenced |= operand.columns()
        return referenced

    def flattened(self) -> list[Expression]:
        """Conjuncts with nested ``And`` nodes expanded (for the planner)."""
        conjuncts: list[Expression] = []
        for operand in self.operands:
            if isinstance(operand, And):
                conjuncts.extend(operand.flattened())
            else:
                conjuncts.append(operand)
        return conjuncts

    def __repr__(self) -> str:
        return f"And({list(self.operands)!r})"


class Or(Expression):
    """Logical disjunction of sub-expressions."""

    def __init__(self, operands: Iterable[Expression]) -> None:
        self.operands: tuple[Expression, ...] = tuple(operands)

    def evaluate(self, row: Row) -> bool:
        return any(operand.evaluate(row) for operand in self.operands)

    def columns(self) -> set[str]:
        referenced: set[str] = set()
        for operand in self.operands:
            referenced |= operand.columns()
        return referenced

    def __repr__(self) -> str:
        return f"Or({list(self.operands)!r})"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def evaluate(self, row: Row) -> bool:
        return not self.operand.evaluate(row)

    def columns(self) -> set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class TrueExpression(Expression):
    """Always-true expression, the identity element for conjunction."""

    def evaluate(self, row: Row) -> bool:
        return True


def conjoin(expressions: Sequence[Expression]) -> Expression:
    """Combine expressions with AND, simplifying the empty/singleton cases."""
    non_trivial = [e for e in expressions if not isinstance(e, TrueExpression)]
    if not non_trivial:
        return TrueExpression()
    if len(non_trivial) == 1:
        return non_trivial[0]
    return And(non_trivial)


def equality_lookups(expression: Expression) -> dict[str, Any]:
    """Extract ``column = literal`` pairs usable for index lookups.

    Only top-level conjuncts are considered; disjunctions are never indexable
    as a whole.  ``LIKE`` patterns without wildcards are treated as equality.
    """
    lookups: dict[str, Any] = {}
    conjuncts = expression.flattened() if isinstance(expression, And) else [expression]
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, Comparison)
            and conjunct.operator == "="
            and isinstance(conjunct.left, Column)
            and isinstance(conjunct.right, Literal)
        ):
            lookups[conjunct.left.name] = conjunct.right.value
        elif (
            isinstance(conjunct, Comparison)
            and conjunct.operator == "="
            and isinstance(conjunct.right, Column)
            and isinstance(conjunct.left, Literal)
        ):
            lookups[conjunct.right.name] = conjunct.left.value
        elif (
            isinstance(conjunct, Like)
            and not conjunct.negate
            and isinstance(conjunct.operand, Column)
            and not like_has_wildcards(conjunct.pattern)
        ):
            lookups[conjunct.operand.name] = unescape_like(conjunct.pattern)
        elif isinstance(conjunct, InList) and not conjunct.negate and len(conjunct.values) == 1:
            if isinstance(conjunct.operand, Column):
                lookups[conjunct.operand.name] = conjunct.values[0]
    return lookups


def membership_lookups(expression: Expression) -> dict[str, tuple[Any, ...]]:
    """Extract ``column IN (v1, v2, ...)`` conjuncts usable for index lookups.

    Multi-value memberships are returned with their full value tuple so the
    planner can estimate their cost as ``len(values)`` index probes.
    """
    lookups: dict[str, tuple[Any, ...]] = {}
    conjuncts = expression.flattened() if isinstance(expression, And) else [expression]
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, InList)
            and not conjunct.negate
            and isinstance(conjunct.operand, Column)
            and conjunct.values
        ):
            lookups[conjunct.operand.name] = conjunct.values
    return lookups


def range_lookups(expression: Expression) -> dict[str, tuple[Any, Any]]:
    """Extract per-column (low, high) bounds from range conjuncts.

    ``None`` in either position means unbounded on that side.  Used by the
    planner to drive sorted-index range scans on timestamps.  A column whose
    bounds do not compare with each other (``size > 5 AND size > "3"``) is
    left out: ``Comparison`` coerces such operands per row, which no single
    range expresses.
    """
    bounds: dict[str, tuple[Any, Any]] = {}
    incomparable: set[str] = set()

    def update(column: str, low: Any, high: Any) -> None:
        current_low, current_high = bounds.get(column, (None, None))
        try:
            if low is not None and (current_low is None or low > current_low):
                current_low = low
            if high is not None and (current_high is None or high < current_high):
                current_high = high
        except TypeError:
            incomparable.add(column)
        bounds[column] = (current_low, current_high)

    conjuncts = expression.flattened() if isinstance(expression, And) else [expression]
    for conjunct in conjuncts:
        if isinstance(conjunct, Between) and isinstance(conjunct.operand, Column):
            update(conjunct.operand.name, conjunct.low, conjunct.high)
        elif (
            isinstance(conjunct, Comparison)
            and isinstance(conjunct.left, Column)
            and isinstance(conjunct.right, Literal)
        ):
            column, value = conjunct.left.name, conjunct.right.value
            if conjunct.operator in (">", ">="):
                update(column, value, None)
            elif conjunct.operator in ("<", "<="):
                update(column, None, value)
    for column in incomparable:
        del bounds[column]
    return bounds
