"""In-memory property-graph engine (Neo4j substitute) for audit data."""

from repro.storage.graph.cypher import render_path_pattern
from repro.storage.graph.graphdb import DEFAULT_PROPERTY_INDEXES, GraphDatabase
from repro.storage.graph.model import Edge, Node, Path
from repro.storage.graph.pattern import EdgePattern, NodePattern, PathPattern
from repro.storage.graph.planner import CostGuidedPathMatcher, SearchPlan
from repro.storage.graph.provenance import (
    ProvenanceResult,
    ProvenanceTracker,
    flow_endpoints,
)

__all__ = [
    "CostGuidedPathMatcher",
    "DEFAULT_PROPERTY_INDEXES",
    "Edge",
    "EdgePattern",
    "GraphDatabase",
    "Node",
    "NodePattern",
    "Path",
    "PathPattern",
    "ProvenanceResult",
    "ProvenanceTracker",
    "SearchPlan",
    "flow_endpoints",
    "render_path_pattern",
]
