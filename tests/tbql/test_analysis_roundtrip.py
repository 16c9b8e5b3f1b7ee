"""Formatter round-trips preserve static-analysis diagnostics.

For every parseable diagnostic-triggering construct in the rule matrix, the
formatted text must parse back to a query whose analysis yields the same
diagnostics (rule, severity, message, event id — spans may legitimately move
because formatting changes source positions).
"""

from __future__ import annotations

import pytest

from repro.tbql.analysis import analyze_query
from repro.tbql.formatter import format_query
from repro.tbql.parser import parse_query

#: One parseable trigger per rule id (TR304 needs store statistics and TR403
#: an injected failing compiler, so their triggers are exercised in
#: test_analysis.py instead; TR105's AST-only degenerate-window variant is
#: unparseable by construction).
TRIGGERS = {
    "TR101": 'proc p["x"] read file f[id > 100 and id < 10] as e1 return p, f',
    "TR102": 'proc p["x"] read file f[name = "a" and name = "b"] as e1 return p, f',
    "TR103": 'proc p["x"] read file f[name like "a%" and name like "b%"] as e1 return p, f',
    "TR104": (
        'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
        "with e1 before e2, e2 before e1 return p, f"
    ),
    "TR105": (
        'proc p["x"] read file f["y"] as e1 during (1000, 2000) '
        'proc p write file g["z"] as e2 during (100, 200) '
        "with e1 before e2 return p, f"
    ),
    "TR106": 'proc p["x"] read file f["y"] as e1 with e1.id < e1.id return p, f',
    "TR201": 'proc p["x"] read file f[name = "a" and name = "a"] as e1 return p, f',
    "TR202": 'proc p["x"] read file f[id > 10 and id > 5] as e1 return p, f',
    "TR203": (
        'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
        "with e1 before e2, e1 before e2 return p, f"
    ),
    "TR204": (
        'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
        'proc p create file h["w"] as e3 '
        "with e1 before e2, e2 before e3, e1 before e3 return p, f"
    ),
    "TR205": 'proc p["x"] read file f as e1 return p',
    "TR206": (
        'proc p["x"] read file f["y"] as e1 proc p["x"] write file g["z"] as e2 '
        "with e1 before e2 return p, f"
    ),
    "TR301": (
        'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
        "return p, f"
    ),
    "TR302": "proc p ~>(1~4)[read] file f return p, f",
    "TR303": (
        'proc p["x"] read file f["y"] as e1 '
        'proc q["z"] write file g["w"] as e2 return p, q'
    ),
    "TR401": 'proc p["%sh%"] ~>(1~2)[read] file f["/etc/%"] return p, f',
}

CLEAN_QUERIES = [
    'proc p["%sh%"] read file f["/etc/%"] as e1 return p, f',
    (
        'proc p["%scp%"] read file f["/var/log/%"] as e1 '
        'proc p send ip x["10.0.0.%"] as e2 with e1 before e2 return distinct p, f, x'
    ),
    'proc p[exename like "%sh%"] read or write file f["/etc/passwd"] as e1 return p, f',
]


def _fingerprint(report):
    """Diagnostics without source spans (formatting may move positions)."""
    return [
        (d.rule, d.severity.value, d.message, d.event_id, d.hint) for d in report
    ]


@pytest.mark.parametrize("rule", sorted(TRIGGERS))
def test_roundtrip_preserves_diagnostics(rule):
    source = TRIGGERS[rule]
    original = analyze_query(source)
    assert rule in original.rules(), f"trigger for {rule} no longer fires it"

    formatted = format_query(parse_query(source))
    reparsed = parse_query(formatted)
    assert reparsed == parse_query(source)

    roundtripped = analyze_query(reparsed)
    assert _fingerprint(roundtripped) == _fingerprint(original)


@pytest.mark.parametrize("source", CLEAN_QUERIES)
def test_roundtrip_of_clean_queries_stays_clean(source):
    assert len(analyze_query(source)) == 0
    formatted = format_query(parse_query(source))
    assert len(analyze_query(formatted)) == 0


@pytest.mark.parametrize("rule", sorted(TRIGGERS))
def test_roundtrip_diagnostics_keep_spans_resolvable(rule):
    """Diagnostics on formatted text still carry spans inside that text."""
    formatted = format_query(parse_query(TRIGGERS[rule]))
    lines = formatted.splitlines()
    for diagnostic in analyze_query(formatted):
        if diagnostic.span is None:
            continue
        assert 1 <= diagnostic.span.line <= len(lines)
        assert 1 <= diagnostic.span.column <= len(lines[diagnostic.span.line - 1]) + 1
