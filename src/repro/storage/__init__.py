"""Storage component: relational (PostgreSQL-like) and graph (Neo4j-like) backends."""

from repro.storage.graph import GraphDatabase
from repro.storage.loader import AppendReport, AuditStore, LoadReport
from repro.storage.relational import RelationalDatabase
from repro.storage.segment import SegmentedRelationalDatabase

__all__ = [
    "AppendReport",
    "AuditStore",
    "GraphDatabase",
    "LoadReport",
    "RelationalDatabase",
    "SegmentedRelationalDatabase",
]
