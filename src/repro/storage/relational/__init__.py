"""In-memory relational engine (PostgreSQL substitute) for audit data."""

from repro.storage.relational.database import (
    DEFAULT_HASH_INDEXES,
    DEFAULT_SORTED_INDEXES,
    ENTITY_SCHEMA,
    EVENT_SCHEMA,
    RelationalDatabase,
)
from repro.storage.relational.executor import AccessPath, ExecutionPlan, QueryExecutor
from repro.storage.relational.expression import (
    And,
    Between,
    Column,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    TrueExpression,
    conjoin,
    equality_lookups,
    range_lookups,
)
from repro.storage.relational.index import HashIndex, SortedIndex
from repro.storage.relational.query import (
    JoinCondition,
    OrderBy,
    OutputColumn,
    QueryResult,
    RowFieldView,
    SelectQuery,
    TableRef,
)
from repro.storage.relational.table import ColumnDefinition, Table, TableSchema
from repro.storage.relational.vectorized import filter_positions

__all__ = [
    "AccessPath",
    "And",
    "Between",
    "Column",
    "ColumnDefinition",
    "Comparison",
    "DEFAULT_HASH_INDEXES",
    "DEFAULT_SORTED_INDEXES",
    "ENTITY_SCHEMA",
    "EVENT_SCHEMA",
    "ExecutionPlan",
    "Expression",
    "HashIndex",
    "InList",
    "JoinCondition",
    "Like",
    "Literal",
    "Not",
    "Or",
    "OrderBy",
    "OutputColumn",
    "QueryExecutor",
    "QueryResult",
    "RelationalDatabase",
    "RowFieldView",
    "SelectQuery",
    "SortedIndex",
    "Table",
    "TableRef",
    "TableSchema",
    "TrueExpression",
    "conjoin",
    "equality_lookups",
    "filter_positions",
    "range_lookups",
]
