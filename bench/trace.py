"""Per-layer spans, recorded from the benchmark's side of the public API.

Nothing under ``src/`` is edited: the benchmark times its own facade calls,
and for the layers beneath them it wraps public **class methods**, looked up
by dotted name when tracing starts.  A name that no longer resolves is put in
:attr:`Tracer.missing` instead of failing, so a change that deletes a class
does not break the benchmark it may not edit.

Spans stay in memory (:attr:`Tracer.spans`) and are written out with the
results.  A span's self time is its duration minus its direct children's:
one thread, so siblings never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: ``hook(tracer, instance, result)`` run after a wrapped call returns; it
#: may only read public attributes and the return value.
CountHook = Callable[["Tracer", Any, Any], None]


@dataclass(frozen=True)
class SpanSpec:
    """One traced layer boundary.

    Attributes:
        name: Span name; per-layer metrics are ``<name>.calls`` /
            ``.busy_s`` / ``.self_s``.
        targets: ``"package.module:Class.method"`` names wrapped under this
            span.  Empty for spans the benchmark times around its own calls.
        hook: Optional counter hook.
        exhaust: The method returns a lazy iterator; drain it inside the span
            so the span times the work, not the creation of the generator.
    """

    name: str
    targets: tuple[str, ...] = ()
    hook: CountHook | None = None
    exhaust: bool = False


@dataclass
class Span:
    """One recorded span."""

    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int  # the operation's id; spans of one operation share it

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(target: str) -> tuple[type, str]:
    """Resolve ``"module:Class.method"`` to ``(class, method name)``.

    Raises:
        LookupError: when the module, class or method does not exist.
    """
    module_name, _, qualified = target.partition(":")
    class_name, _, method = qualified.partition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    owner = getattr(module, class_name, None)
    if not isinstance(owner, type) or not callable(owner.__dict__.get(method)):
        raise LookupError(target)
    return owner, method


class Tracer:
    """Records nested spans and named counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op = 0
        self.paused = False
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def next_op(self) -> int:
        """Start a new operation; spans opened from now on carry its id."""
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around the ``with`` body."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Let wrapped methods run unrecorded (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, start=0.0, end=0.0, parent=parent, op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def install(self, specs: tuple[SpanSpec, ...]) -> None:
        """Wrap every resolvable target of ``specs``; note the others as missing."""
        for spec in specs:
            for target in spec.targets:
                try:
                    owner, method = resolve(target)
                except LookupError:
                    self.missing.append(target)
                    continue
                original = owner.__dict__[method]
                self._originals.append((owner, method, original))
                setattr(owner, method, self._wrapper(spec, original))

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._originals:
            owner, method, original = self._originals.pop()
            setattr(owner, method, original)

    def _wrapper(self, spec: SpanSpec, original: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        name, hook, exhaust = spec.name, spec.hook, spec.exhaust

        def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return original(self, *args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(self, *args, **kwargs)
                if exhaust:
                    result = list(result)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, self, result)
            return iter(result) if exhaust else result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{span name: {"calls", "busy_s", "self_s"}}`` over ``spans``."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += span.duration
        entry["self_s"] += span.duration - child_time[index]
    return totals
