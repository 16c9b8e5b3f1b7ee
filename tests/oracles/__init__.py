"""Reference implementations the tests compare the engine against.

None of these is reachable from ``src/repro`` (``scripts/check_invariants.py``
enforces it): :class:`ReferenceQueryExecutor` (row-dict relational executor),
:class:`PathMatcher` (always-forward DFS), :class:`SqliteRelationalDatabase`
(the rendered SQL run by sqlite3) and :func:`reduce_trace` (whole-trace CPR).
"""

from tests.oracles.cpr import reduce_trace
from tests.oracles.dfs import PathMatcher
from tests.oracles.reference import ReferenceQueryExecutor
from tests.oracles.sqlite import SqliteRelationalDatabase

__all__ = ["PathMatcher", "ReferenceQueryExecutor", "SqliteRelationalDatabase", "reduce_trace"]
