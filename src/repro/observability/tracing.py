"""Structured tracing for the five-step process (zero dependencies).

The paper's execution layer owes users *result analysis* over the whole
benchmarking process (Figure 1), and the surveyed suites stress that
benchmark numbers are only trustworthy with per-phase instrumentation.
This module is the measurement substrate: a :class:`Tracer` producing
nested :class:`Span` trees with monotonic timings, attributes, and
counters, safe to use from the thread and process executor backends.

Design constraints, in order:

* **Zero overhead when off.**  The disabled tracer hands out one shared
  no-op context manager and one shared no-op span; instrumented code
  pays a thread-local lookup and two method calls per span, nothing
  else.  ``if span:`` is the idiomatic guard for work that only matters
  when tracing (the null span is falsy).
* **Thread safety.**  Each thread keeps its own span stack
  (``threading.local``); finished root spans are appended to a shared,
  lock-protected list.  Worker threads and processes record into their
  own local tracer and the parent grafts the finished trees in
  submission order, so a traced parallel run renders the same tree
  shape as the serial path.
* **Process-merge safety.**  Spans serialize to plain dicts
  (:meth:`Span.to_dict` / :meth:`Span.from_dict`); worker processes
  return their span trees inside the ``RunResult`` payload and the
  parent grafts them in submission order.

Instrumented code does not pass tracers around: it opens spans on the
thread's *current* tracer (:func:`trace_span`), which defaults to the
disabled :data:`NULL_TRACER` until :meth:`Tracer.activate` installs a
real one.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    """One timed region of the benchmarking process.

    ``started`` is a :func:`time.perf_counter` reading, meaningful only
    within the process that recorded it; serialized spans keep just the
    duration.
    """

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    started: float = 0.0
    duration_seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def incr(self, counter: str, amount: float = 1) -> "Span":
        """Bump a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount
        return self

    def record_max(self, counter: str, value: float) -> "Span":
        """Keep the running maximum of a gauge-style counter.

        Used for high-water marks (e.g. ``peak_batch_bytes`` on the
        chunked data path) where summing samples would be meaningless.
        """
        current = self.counters.get(counter)
        if current is None or value > current:
            self.counters[counter] = value
        return self

    def walk(self):
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly (and picklable) tree representation."""
        payload: dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            attrs=dict(payload.get("attrs", {})),
            counters=dict(payload.get("counters", {})),
            duration_seconds=payload.get("duration_seconds", 0.0),
            children=[
                cls.from_dict(child) for child in payload.get("children", [])
            ],
        )


class _NullSpan:
    """The no-op span the disabled tracer yields (falsy by design)."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def incr(self, counter: str, amount: float = 1) -> "_NullSpan":
        return self

    def record_max(self, counter: str, value: float) -> "_NullSpan":
        return self

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Shared context manager for disabled tracing (no allocation)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Opens a span on ``__enter__``, closes and files it on ``__exit__``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._span = Span(name=name, attrs=attrs)

    def __enter__(self) -> Span:
        span = self._span
        span.started = time.perf_counter()
        self._tracer._stack().append(span)
        return span

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        span = self._span
        span.duration_seconds = time.perf_counter() - span.started
        if exc_type is not None:
            span.attrs["error"] = exc_type.__name__
        stack = self._tracer._stack()
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self._tracer._file_root(span)
        return False


class Tracer:
    """Collects nested spans; thread-safe, mergeable across processes."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._roots: list[Span] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Context manager timing one region: ``with tracer.span(...)``."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        if not self.enabled:
            return None
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, counter: str, amount: float = 1) -> None:
        """Bump a counter on the current span (no-op when none is open)."""
        span = self.current()
        if span is not None:
            span.incr(counter, amount)

    def count_max(self, counter: str, value: float) -> None:
        """Record a running-maximum gauge on the current span.

        The high-water-mark companion of :meth:`count`: used by the
        chunked data path for ``peak_batch_bytes``, where the largest
        observed value is the answer and sums would mislead.
        """
        span = self.current()
        if span is not None:
            span.record_max(counter, value)

    def graft(self, spans: list[Span]) -> None:
        """Adopt finished span trees (worker output) in the given order.

        Grafted trees become children of the current span, or new roots
        when no span is open — exactly where a serial execution would
        have produced them.
        """
        if not self.enabled or not spans:
            return
        parent = self.current()
        if parent is not None:
            parent.children.extend(spans)
        else:
            with self._lock:
                self._roots.extend(spans)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Finished top-level spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def to_jsonl(self) -> str:
        """One JSON object per root span tree (the ``--trace-out`` dump)."""
        return "\n".join(
            json.dumps(root.to_dict(), sort_keys=True, default=str)
            for root in self.roots()
        )

    def activate(self) -> "_TracerActivation":
        """Install as this thread's current tracer for a ``with`` block."""
        return _TracerActivation(self)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _file_root(self, span: Span) -> None:
        with self._lock:
            self._roots.append(span)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, roots={len(self._roots)})"


#: The default tracer: disabled, shared, records nothing.
NULL_TRACER = Tracer(enabled=False)

_active = threading.local()


class _TracerActivation:
    """Thread-local install/restore of the current tracer."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = getattr(_active, "tracer", None)
        _active.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        _active.tracer = self._previous
        return False


def current_tracer() -> Tracer:
    """This thread's active tracer (:data:`NULL_TRACER` by default)."""
    tracer = getattr(_active, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER


def trace_span(name: str, **attrs: Any):
    """Open a span on the current tracer: ``with trace_span("x") as s:``."""
    return current_tracer().span(name, **attrs)


def summarize_spans(spans: list[Span]) -> dict[str, dict[str, Any]]:
    """Aggregate a span forest by name: call count and total duration.

    This is the compact per-result form embedded in JSON reports, where
    a full tree would drown the metrics it annotates.  Counters total
    under a ``counters`` key per span name (present only when a span of
    that name carried any) — how retry counts and cache hit/miss totals
    survive into reports without shipping the whole tree.
    """
    summary: dict[str, dict[str, Any]] = {}
    for root in spans:
        for span in root.walk():
            entry = summary.setdefault(
                span.name, {"count": 0, "total_seconds": 0.0}
            )
            entry["count"] += 1
            entry["total_seconds"] += span.duration_seconds
            if span.counters:
                totals = entry.setdefault("counters", {})
                for counter, amount in span.counters.items():
                    if counter.startswith("peak_"):
                        # High-water marks (Span.record_max) aggregate by
                        # maximum: summing peaks across spans would claim
                        # more memory than any span ever held.
                        totals[counter] = max(totals.get(counter, 0), amount)
                    else:
                        totals[counter] = totals.get(counter, 0) + amount
    return summary
