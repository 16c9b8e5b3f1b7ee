"""SQL text rendering for relational data queries."""

from repro.storage.sql.render import (
    ExpressionRenderer,
    RenderedSQL,
    render_expression,
    render_select_query,
)

__all__ = [
    "ExpressionRenderer",
    "RenderedSQL",
    "render_expression",
    "render_select_query",
]
