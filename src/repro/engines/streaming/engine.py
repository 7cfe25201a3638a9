"""A mini stream-processing engine.

Implements the third meaning of data velocity in Section 2.1: "data
streams continuously arrive and must be processed in real-time to keep up
with their arriving speed".  The engine runs a topology of operators over
timestamped events and models the processing side as a single-server
queue: when the arrival rate exceeds the service rate, backlog and
per-event latency grow — the behaviour real-time-analytics benchmarks
must expose.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.core.errors import EngineError
from repro.datagen.stream import StreamEvent
from repro.engines.base import Engine, EngineInfo


_TIMESTAMP = attrgetter("timestamp")


@dataclass(frozen=True)
class WindowResult:
    """One aggregate emitted by a window operator."""

    window_start: float
    window_end: float
    key: Any
    value: Any


class StreamOperator(ABC):
    """Base class of streaming operators (event in → events out).

    The operators of one topology share no state, and an operator sees
    its events in event order: the engine may hand it a whole run at
    once (:meth:`process_many`) before the next operator sees any.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # An inherited batch door describes the parent's ``process``: a
        # subclass that redefines ``process`` alone gets the loop over
        # its own.
        if "process" in vars(cls) and "process_many" not in vars(cls):
            cls.process_many = StreamOperator.process_many

    @abstractmethod
    def process(self, event: StreamEvent) -> Iterable[StreamEvent]:
        """Transform one event into zero or more events."""

    def process_many(self, events: Sequence[StreamEvent]) -> list[StreamEvent]:
        """Transform a run of events, in order, into the events they become.

        The batch door the engine calls.  Equal, state included, to
        feeding each event to :meth:`process` in turn, which is what
        this default does; the built-in operators override it with one
        loop over the run.
        """
        out: list[StreamEvent] = []
        extend = out.extend
        process = self.process
        for event in events:
            extend(process(event))
        return out

    def flush(self) -> Iterable[WindowResult]:
        """Emit any pending results at end of stream."""
        return ()


class MapOperator(StreamOperator):
    """Apply a function to each event's value."""

    def __init__(self, function: Callable[[StreamEvent], StreamEvent]) -> None:
        self.function = function

    def process(self, event: StreamEvent) -> Iterable[StreamEvent]:
        yield self.function(event)

    def process_many(self, events: Sequence[StreamEvent]) -> list[StreamEvent]:
        return list(map(self.function, events))


class FilterOperator(StreamOperator):
    """Drop events failing a predicate."""

    def __init__(self, predicate: Callable[[StreamEvent], bool]) -> None:
        self.predicate = predicate

    def process(self, event: StreamEvent) -> Iterable[StreamEvent]:
        if self.predicate(event):
            yield event

    def process_many(self, events: Sequence[StreamEvent]) -> list[StreamEvent]:
        return list(filter(self.predicate, events))


class TumblingWindowAggregate(StreamOperator):
    """Per-key aggregation over fixed, non-overlapping time windows.

    ``reducer(accumulator, value) -> accumulator`` folds values;
    completed windows are emitted when an event arrives past their end
    (watermark = event time, i.e. no allowed lateness).
    """

    def __init__(
        self,
        window_seconds: float,
        reducer: Callable[[Any, float], Any],
        initial: Callable[[], Any] = lambda: 0.0,
    ) -> None:
        if window_seconds <= 0:
            raise EngineError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        self.window_seconds = window_seconds
        self.reducer = reducer
        self.initial = initial
        self._windows: dict[int, dict[Any, Any]] = defaultdict(dict)
        self._emitted: list[WindowResult] = []
        self._watermark = float("-inf")
        #: The lowest window id that may be open.  A window expires when
        #: the watermark passes its end, so nothing can have expired
        #: while this is still the watermark's own window: expiry is
        #: looked for when the watermark enters a new window (or a late
        #: event has reopened an old one), not on every event.
        self._oldest_open = float("inf")

    def process(self, event: StreamEvent) -> Iterable[StreamEvent]:
        self._fold((event,))
        return ()

    def process_many(self, events: Sequence[StreamEvent]) -> list[StreamEvent]:
        self._fold(events)
        return []

    def _fold(self, events: Iterable[StreamEvent]) -> None:
        """Fold events into their windows, closing those the watermark passes."""
        size = self.window_seconds
        windows = self._windows
        reducer = self.reducer
        initial = self.initial
        watermark = self._watermark
        oldest_open = self._oldest_open
        for event in events:
            timestamp = event.timestamp
            window = int(timestamp // size)
            per_key = windows[window]
            key = event.key
            accumulator = per_key.get(key)
            if accumulator is None:
                accumulator = initial()
            per_key[key] = reducer(accumulator, event.value)
            if window < oldest_open:
                oldest_open = window
            if timestamp > watermark:
                watermark = timestamp
                if oldest_open < window:
                    self._close_expired(window)
                    oldest_open = window
        self._watermark = watermark
        self._oldest_open = oldest_open

    def _close_expired(self, current: int) -> None:
        """Emit every open window before ``current``, oldest first."""
        for window in sorted(self._windows):
            if window >= current:
                break
            self._emit_window(window)
        self._oldest_open = current

    def _emit_window(self, window: int) -> None:
        per_key = self._windows.pop(window)
        start = window * self.window_seconds
        for key in sorted(per_key, key=str):
            self._emitted.append(
                WindowResult(
                    window_start=start,
                    window_end=start + self.window_seconds,
                    key=key,
                    value=per_key[key],
                )
            )

    def flush(self) -> Iterable[WindowResult]:
        for window in sorted(self._windows):
            self._emit_window(window)
        self._oldest_open = float("inf")
        emitted = self._emitted
        self._emitted = []
        return emitted

    def take_emitted(self) -> list[WindowResult]:
        """Results of windows already closed by the watermark."""
        emitted = self._emitted
        self._emitted = []
        return emitted


class SlidingWindowAggregate(StreamOperator):
    """Per-key aggregation over overlapping windows (size, slide).

    Each event lands in every window whose span covers its timestamp, so
    one event contributes to ``size / slide`` results.
    """

    def __init__(
        self,
        window_seconds: float,
        slide_seconds: float,
        reducer: Callable[[Any, float], Any],
        initial: Callable[[], Any] = lambda: 0.0,
    ) -> None:
        if window_seconds <= 0 or slide_seconds <= 0:
            raise EngineError("window and slide must be positive")
        if slide_seconds > window_seconds:
            raise EngineError("slide must not exceed the window size")
        self.window_seconds = window_seconds
        self.slide_seconds = slide_seconds
        self.reducer = reducer
        self.initial = initial
        self._windows: dict[int, dict[Any, Any]] = defaultdict(dict)

    def process(self, event: StreamEvent) -> Iterable[StreamEvent]:
        self._fold((event,))
        return ()

    def process_many(self, events: Sequence[StreamEvent]) -> list[StreamEvent]:
        self._fold(events)
        return []

    def _fold(self, events: Iterable[StreamEvent]) -> None:
        # Windows start at multiples of the slide; an event belongs to
        # every window with start <= t < start + size.
        size = self.window_seconds
        slide = self.slide_seconds
        windows = self._windows
        reducer = self.reducer
        initial = self.initial
        offsets = range(int(size // slide))
        for event in events:
            timestamp = event.timestamp
            last_start = int(timestamp // slide)
            for offset in offsets:
                start_index = last_start - offset
                start = start_index * slide
                if start < 0 or timestamp >= start + size:
                    continue
                per_key = windows[start_index]
                key = event.key
                accumulator = per_key.get(key)
                if accumulator is None:
                    accumulator = initial()
                per_key[key] = reducer(accumulator, event.value)

    def flush(self) -> Iterable[WindowResult]:
        results: list[WindowResult] = []
        for start_index in sorted(self._windows):
            start = start_index * self.slide_seconds
            per_key = self._windows[start_index]
            for key in sorted(per_key, key=str):
                results.append(
                    WindowResult(
                        window_start=start,
                        window_end=start + self.window_seconds,
                        key=key,
                        value=per_key[key],
                    )
                )
        self._windows.clear()
        return results


@dataclass
class Topology:
    """A linear pipeline of stream operators."""

    name: str
    operators: list[StreamOperator] = field(default_factory=list)

    def then(self, operator: StreamOperator) -> "Topology":
        self.operators.append(operator)
        return self


@dataclass
class StreamRunReport:
    """Evidence from one streaming run."""

    topology: str
    events_in: int
    results: list[WindowResult]
    #: Per-event queueing latency (departure − arrival), simulated.
    latencies: list[float]
    arrival_rate: float
    service_rate: float
    #: Events still queued when the source ended (backlog).
    final_backlog_seconds: float

    @property
    def keeps_up(self) -> bool:
        """Whether processing kept up with the arrival speed."""
        return self.service_rate >= self.arrival_rate

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies) if self.latencies else 0.0


class StreamingEngine(Engine):
    """Runs topologies over event streams with a queueing-time model."""

    def __init__(self, service_seconds_per_event: float = 50e-6) -> None:
        super().__init__()
        if service_seconds_per_event <= 0:
            raise EngineError(
                "service_seconds_per_event must be positive, got "
                f"{service_seconds_per_event}"
            )
        self.service_seconds_per_event = service_seconds_per_event

    @property
    def info(self) -> EngineInfo:
        return EngineInfo(
            name="streaming",
            system_type="Streaming",
            software_stack="stream processor (real-time analytics substitute)",
            input_format="records",
            description=(
                "linear operator topologies, tumbling/sliding windows, "
                "single-server queueing latency model"
            ),
        )

    def run(self, topology: Topology, events: Sequence[StreamEvent]) -> StreamRunReport:
        """Process an event stream through a topology.

        Operator-major: each operator takes the whole ordered run
        through :meth:`StreamOperator.process_many` before the next one
        sees what it let through.
        """
        ordered = sorted(events, key=_TIMESTAMP)
        service_seconds = self.service_seconds_per_event
        operators = topology.operators
        latencies: list[float] = []
        record_latency = latencies.append
        departure = 0.0
        for timestamp in map(_TIMESTAMP, ordered):
            # Single-server queue: service starts when both the event has
            # arrived and the previous event has departed.
            start = departure if departure > timestamp else timestamp
            departure = start + service_seconds
            record_latency(departure - timestamp)
        compute_ops = 0
        current: Sequence[StreamEvent] = ordered
        for operator in operators:
            compute_ops += len(current)
            current = operator.process_many(current)
        results: list[WindowResult] = []
        for operator in operators:
            results.extend(operator.flush())
        # Counted in locals above, charged to the engine once per run.
        self.counters.records_read += len(ordered)
        self.counters.compute_ops += compute_ops
        self.counters.records_written += len(results)

        span = (
            ordered[-1].timestamp - ordered[0].timestamp if len(ordered) > 1 else 0.0
        )
        arrival_rate = (len(ordered) - 1) / span if span > 0 else float("inf")
        backlog = max(0.0, departure - (ordered[-1].timestamp if ordered else 0.0))
        return StreamRunReport(
            topology=topology.name,
            events_in=len(ordered),
            results=results,
            latencies=latencies,
            arrival_rate=arrival_rate,
            service_rate=1.0 / self.service_seconds_per_event,
            final_backlog_seconds=backlog,
        )
