"""Span recording for the traced round, and the sample statistics the report uses.

A span is one call across a layer boundary, recorded from outside the
program: name, start, end, the span that caused it, and the id of the
cell (one public call of the workload) it belongs to.  Spans stay in
memory until the round ends; :func:`write_jsonl` dumps them afterwards.

*busy* is a span's duration; *self* is the duration minus the part of
its interval that its child spans cover (children on two pool threads
can overlap, so the covered part is the union of their intervals).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    cell: str | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of one child process.

    Each thread nests its own spans.  A span opened on a thread with no
    open span of its own (a pool worker) is attributed to the innermost
    span open on the thread that started the cell, which is blocked
    waiting for that worker.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cell: str | None = None
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._cell_thread = threading.get_ident()
        self._lock = threading.Lock()

    def begin_cell(self, name: str) -> None:
        self.cell = name
        self._cell_thread = threading.get_ident()

    def start(self, name: str) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks[thread]
            if stack:
                parent = stack[-1].id
            else:
                waiting = self._stacks[self._cell_thread]
                parent = waiting[-1].id if waiting else None
            span = Span(len(self.spans), name, 0.0, parent, self.cell)
            self.spans.append(span)
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].remove(span)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part its children cover."""
    clipped = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    ]
    return span.duration - covered(
        (start, end) for start, end in clipped if end > start
    )


@dataclass
class LayerTotals:
    """What one span name adds up to over a set of spans."""

    count: int = 0
    busy: float = 0.0
    self: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> dict[str, LayerTotals]:
    """Count, busy and self time per span name.

    A span nested (at any depth) inside a span of the same name — a
    public method that calls another public method of its layer — adds
    to the count but not to the times, so no second is counted twice.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.count += 1
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        while ancestor is not None and ancestor.name != span.name:
            ancestor = (
                by_id.get(ancestor.parent)
                if ancestor.parent is not None
                else None
            )
        if ancestor is None:
            entry.busy += span.duration
            entry.self += self_time(span, children[span.id])
    return dict(totals)


def write_jsonl(spans: Sequence[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    {
                        "id": span.id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "cell": span.cell,
                        **({"attrs": span.attrs} if span.attrs else {}),
                    }
                )
                + "\n"
            )


# -- sample statistics --------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), interpolating between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (rank - lower)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile, as the gate computes them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    first, median, third = statistics.quantiles(values, n=4)
    return (first, median, third)


def typical(values: Sequence[float]) -> float:
    """The lower quartile: what a call costs when the host leaves it alone.

    Interference from the host only ever adds time, in bursts, so the
    lower part of a sample is the steady part; the median of three to
    seven rounds still moves with every burst.
    """
    return max(min(values), quartiles(values)[0])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0


#: Percentiles a report may quote, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_tail(samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it.

    240 samples support p95 (12 beyond) but not p99 (2.4 beyond); fewer
    than 20 samples support no percentile at all, median included.
    """
    for candidate in TAIL_CANDIDATES:
        if samples * (1.0 - candidate / 100.0) >= 10.0:
            return candidate
    return None
