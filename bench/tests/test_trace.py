"""Span arithmetic and method wrapping."""

from __future__ import annotations

import pytest

from bench.trace import Span, SpanSpec, Tracer, resolve, summarize


class Layer:
    """Stands in for a class under ``src/``."""

    def outer(self, n: int) -> int:
        return self.inner(n) + self.inner(n)

    def inner(self, n: int) -> int:
        return n + 1

    def lazy(self, n: int):
        yield from range(n)


HERE = f"{__name__}:Layer"


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("root", 0.0, 10.0, parent=-1, op=1),
        Span("child", 1.0, 4.0, parent=0, op=1),
        Span("grandchild", 2.0, 3.0, parent=1, op=1),
        Span("child", 5.0, 7.0, parent=0, op=1),
    ]
    totals = summarize(spans)
    assert totals["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    # Two sibling calls: busy 3 + 2; only the first has a child of its own.
    assert totals["child"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.0}
    assert totals["grandchild"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_wrapped_methods_record_parents_and_are_restored():
    tracer = Tracer()
    before = (Layer.__dict__["outer"], Layer.__dict__["inner"])
    tracer.install((SpanSpec("outer", (f"{HERE}.outer",)), SpanSpec("inner", (f"{HERE}.inner",))))
    assert Layer.__dict__["outer"] is not before[0]
    tracer.next_op()
    assert Layer().outer(1) == 4
    tracer.uninstall()
    assert (Layer.__dict__["outer"], Layer.__dict__["inner"]) == before

    assert [span.name for span in tracer.spans] == ["outer", "inner", "inner"]
    assert [span.parent for span in tracer.spans] == [-1, 0, 0]
    assert {span.op for span in tracer.spans} == {1}
    totals = summarize(tracer.spans)
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["busy_s"] - totals["inner"]["busy_s"]
    )
    Layer().outer(1)  # unwrapped again: nothing more is recorded
    assert len(tracer.spans) == 3


def test_missing_names_are_listed_not_raised():
    tracer = Tracer()
    gone = (f"{HERE}.removed", f"{__name__}:NoSuchClass.method", "no.such.module:Class.method")
    tracer.install((SpanSpec("layer", (f"{HERE}.inner", *gone)),))
    try:
        assert tracer.missing == list(gone)
        Layer().inner(1)
        assert [span.name for span in tracer.spans] == ["layer"]
    finally:
        tracer.uninstall()
    with pytest.raises(LookupError):
        resolve(gone[0])


def test_hooks_count_and_lazy_results_are_drained_inside_the_span():
    tracer = Tracer()
    spec = SpanSpec(
        "lazy",
        (f"{HERE}.lazy",),
        hook=lambda t, _self, result: t.count("lazy.items", len(result)),
        exhaust=True,
    )
    tracer.install((spec,))
    try:
        assert list(Layer().lazy(5)) == [0, 1, 2, 3, 4]
    finally:
        tracer.uninstall()
    assert tracer.counts["lazy.items"] == 5
    assert tracer.spans[0].end >= tracer.spans[0].start > 0


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.install((SpanSpec("inner", (f"{HERE}.inner",)),))
    try:
        with tracer.pause():
            Layer().inner(1)
        assert tracer.spans == []
        Layer().inner(1)
        assert len(tracer.spans) == 1
    finally:
        tracer.uninstall()
