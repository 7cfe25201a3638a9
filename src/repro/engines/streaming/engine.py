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

import math
from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro._util import build_by_column
from repro.core.errors import EngineError
from repro.datagen.stream import EventColumns, StreamEvent
from repro.engines.base import Engine


_TIMESTAMP = attrgetter("timestamp")
_KEY = attrgetter("key")
#: Events the counting door reads at once, grown to one whole window
#: when a window holds more: its numpy temporaries stay a few tens of KB
#: however long the run.
_COUNT_SLICE = 2048
#: Window ids this large or larger are not all exact as float64s.
_EXACT_IDS = 2.0**53
#: The most entries of the counting door's key table (the run's key
#: range) and of a slice's cell table (windows x distinct keys); a run
#: that needs more is folded.
_COUNT_TABLE = 1 << 15
_FLOAT = {float}
_INT = {int}


def count(accumulator: Any, value: Any) -> Any:
    """The counting reducer: one more per event, whatever its value.

    A :class:`TumblingWindowAggregate` with this reducer and the default
    ``initial`` folds a sorted run in bulk (its counting door).
    """
    return accumulator + 1


def _zero() -> float:
    """The default initial accumulator of the window operators."""
    return 0.0


def _check_window(name: str, seconds: float) -> None:
    if not (seconds > 0 and math.isfinite(seconds)):
        raise EngineError(f"{name} must be positive and finite, got {seconds}")


@dataclass(frozen=True, slots=True)
class WindowResult:
    """One aggregate emitted by a window operator (slotted, built by column)."""

    window_start: float
    window_end: float
    key: Any
    value: Any


def _in_time_order(events: Sequence[StreamEvent]) -> Sequence[StreamEvent]:
    """``sorted(events, key=timestamp)``; columns stay columns.

    A stable sort of the timestamp column, skipped when it is already
    non-decreasing.  Columns with a NaN time that are out of order are
    sorted as events: Python's sort and numpy's place a NaN differently.
    """
    if type(events) is EventColumns:
        stamps = events.timestamps
        if len(stamps) < 2 or (stamps[1:] >= stamps[:-1]).all():
            return events
        if not (stamps != stamps).any():
            return events.take(stamps.argsort(kind="stable"))
    return sorted(events, key=_TIMESTAMP)


def _window_results(
    start: float, end: float, per_key: dict[Any, Any]
) -> list[WindowResult]:
    """One window's results, keys in ``str`` order."""
    keys = sorted(per_key, key=str)
    count = len(keys)
    return build_by_column(
        WindowResult,
        [start] * count,
        [end] * count,
        keys,
        list(map(per_key.__getitem__, keys)),
    )


def _read_counted(
    np: Any,
    events: Sequence[StreamEvent],
    low: int,
    high: int,
    previous: float,
    size: float,
) -> tuple[Any, Any, Any] | None:
    """The timestamps (float64), keys (int64) and window ids of
    ``events[low:high]``, if the counting door may fold that slice with
    the watermark at ``previous``.

    From the columns of an :class:`EventColumns` whose timestamps are
    float64 and keys int64 (so every event's are a ``float`` and an
    ``int`` that fits an int64); from the events of anything else.
    Below 2**53 a window id is the exact floor of time / size, so sorted
    times have sorted ids; that is checked too, not assumed."""
    if type(events) is EventColumns:
        times = events.timestamps[low:high]
        key_array = events.keys[low:high]
    else:
        part = events[low:high]
        stamps = list(map(_TIMESTAMP, part))
        keys = list(map(_KEY, part))
        if {*map(type, stamps)} != _FLOAT or {*map(type, keys)} != _INT:
            return None
        try:
            key_array = np.fromiter(keys, np.int64, len(keys))
        except OverflowError:
            return None
        times = np.fromiter(stamps, np.float64, len(stamps))
    ids = np.floor_divide(times, size)
    # NaN fails every comparison; an infinite time has a NaN id.
    if not (
        times[0] >= previous
        and -_EXACT_IDS < ids[0]
        and ids[-1] < _EXACT_IDS
        and (times[1:] >= times[:-1]).all()
        and (ids[1:] >= ids[:-1]).all()
    ):
        return None
    return times, key_array, ids


def _str_order(np: Any, low: int, high: int) -> tuple[Any, Any]:
    """The ints of ``range(low, high)`` in ``str`` order (an object array)
    and, indexed by ``value - low``, each one's place in that order."""
    ordered = sorted(range(low, high), key=str)
    place = np.empty(high - low, dtype=np.intp)
    place[np.array(ordered) - low] = np.arange(high - low)
    return np.array(ordered, dtype=object), place


def _count_cells(
    np: Any, places: Any, cuts: Any, ordered: Any
) -> tuple[list[int], Any, Any] | None:
    """The (window, key) cells of a slice of whole windows in the order
    the fold emits them, window by window and keys in ``str`` order:
    cells per window, their keys and their counts.

    ``places`` are the events' keys as places in ``ordered``, the run's
    key range in ``str`` order.  Each key of the slice gets its rank
    among the slice's keys, each event one code ordered as (window,
    rank), and one ``bincount`` counts every cell: tables, not a sort,
    because numpy's sort kernels cost a process about 1 MB the first
    time they run.  None when the cell table would have more than
    :data:`_COUNT_TABLE` entries.
    """
    present = np.zeros(len(ordered), dtype=bool)
    present[places] = True
    used = np.flatnonzero(present)
    width = len(used)
    windows = len(cuts) + 1
    if windows * width > _COUNT_TABLE:
        return None
    rank = np.empty(len(ordered), dtype=np.intp)
    rank[used] = np.arange(width)
    codes = np.zeros(len(places), dtype=np.intp)
    codes[cuts] = width
    np.cumsum(codes, out=codes)
    codes += rank[places]
    tally = np.bincount(codes, minlength=windows * width).reshape(windows, width)
    cell_windows, cell_ranks = np.nonzero(tally)
    return (
        np.bincount(cell_windows, minlength=windows).tolist(),
        ordered[used][cell_ranks],
        tally[cell_windows, cell_ranks],
    )


def _closed_results(
    np: Any,
    size: float,
    window_ids: list[int],
    per_window: list[int],
    cell_keys: Any,
    counts: Any,
) -> list[WindowResult]:
    """The results of the windows in ``window_ids``, the first cells of
    ``cell_keys`` and ``counts``, built by column: each window's bounds
    are the fold's, one float object each, shared by its results."""
    starts: list[Any] = []
    ends: list[Any] = []
    for window, cell_count in zip(window_ids, per_window):
        start = window * size
        starts += [start] * cell_count
        ends += [start + size] * cell_count
    shut = len(starts)
    return build_by_column(
        WindowResult,
        starts,
        ends,
        cell_keys[:shut].tolist(),
        counts[:shut].astype(np.float64).tolist(),
    )


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
        initial: Callable[[], Any] = _zero,
    ) -> None:
        _check_window("window_seconds", window_seconds)
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
        if not (
            self.reducer is count
            and self.initial is _zero
            and self._count_run(events)
        ):
            self._fold(events)
        return []

    def _count_run(self, events: Sequence[StreamEvent]) -> bool:
        """The counting door: fold a run in bulk when that equals ``_fold``.

        It does when no window is open, the timestamps are finite
        ``float``s, non-decreasing and not below the watermark, the
        window ids are below 2**53 and the keys are ``int``s that fit an
        int64 (distinct ints have distinct ``str`` forms).  The fold then
        closes each window as the run leaves it, emits its keys in
        ``str`` order with the value ``0.0 + 1 + ... + 1``, and leaves
        the last window open with its keys in first-seen order; so does
        this, a slice of whole windows at a time.  Nothing changes until
        every slice has passed: False means the run was not folded.  The
        run is a list, a tuple or an :class:`EventColumns`, whose
        float64 times and int64 keys are read as columns.
        """
        size = self.window_seconds
        if (
            self._windows
            or type(size) not in (int, float)
            or not isinstance(events, (list, tuple, EventColumns))
            or not events
        ):
            return False
        import numpy as np

        if type(events) is EventColumns and not (
            events.timestamps.dtype == np.float64 and events.keys.dtype == np.int64
        ):
            events = events.events()  # the exact-type checks read events
        total = len(events)
        # The run's key range so far in ``str`` order: one sort, not one
        # a slice, and one int object per key for the run, as the fold.
        ranked: tuple[int, ...] = ()
        ordered = place = None
        closed: list[list[WindowResult]] = []
        low = 0
        with np.errstate(all="ignore"):
            while True:
                high = min(total, low + _COUNT_SLICE)
                while True:
                    # A slice starts inside the one read before it, so
                    # its first event was already checked against the
                    # one before; only the run's first needs the watermark.
                    read = _read_counted(
                        np, events, low, high, self._watermark, size
                    )
                    if read is None:
                        return False
                    times, key_array, ids = read
                    cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
                    if high == total or len(cuts):
                        break
                    high = min(total, 2 * high - low)  # one window fills it
                last = high == total
                if not last:
                    # The slice ends where its last window starts: that
                    # window may go on past it.
                    end = int(cuts[-1])
                    cuts = cuts[:-1]
                    key_array = key_array[:end]
                key_low = int(key_array.min())
                key_high = int(key_array.max()) + 1
                if ranked:
                    key_low = min(key_low, ranked[0])
                    key_high = max(key_high, ranked[1])
                if (key_low, key_high) != ranked:
                    if key_high - key_low > _COUNT_TABLE:
                        return False
                    ranked = (key_low, key_high)
                    ordered, place = _str_order(np, key_low, key_high)
                cells = _count_cells(np, place[key_array - key_low], cuts, ordered)
                if cells is None:
                    return False
                per_window, cell_keys, counts = cells
                window_ids = list(map(int, ids[[0, *cuts]].tolist()))
                if last:
                    opened = window_ids.pop()
                    per_window.pop()
                closed.append(
                    _closed_results(np, size, window_ids, per_window, cell_keys, counts)
                )
                if last:
                    break
                low += end
        shut = len(closed[-1])
        counted = dict(zip(cell_keys[shut:].tolist(), counts[shut:].tolist()))
        first = int(cuts[-1]) if len(cuts) else 0
        table = {
            key: float(counted[key])
            for key in dict.fromkeys(key_array[first:].tolist())
        }
        # The fold's watermark is the first event that reached the latest
        # time (``-0.0 == 0.0``); equal times share a window, so this slice.
        if times[-1] > self._watermark:
            self._watermark = times[times.searchsorted(times[-1])].item()
        for results in closed:
            self._emitted += results
        self._windows[opened] = table
        self._oldest_open = opened
        return True

    def _fold(self, events: Iterable[StreamEvent]) -> None:
        """Fold events into their windows, closing those the watermark passes.

        A window's key table is fetched when an event's window differs
        from the previous event's, so once per run of same-window
        events.  The table held stays the live one: the only call that
        drops tables here, ``_close_expired(window)``, drops those
        before the held window.
        """
        size = self.window_seconds
        windows = self._windows
        reducer = self.reducer
        initial = self.initial
        watermark = self._watermark
        oldest_open = self._oldest_open
        current = None
        per_key: dict[Any, Any] = {}
        for event in events:
            timestamp = event.timestamp
            window = int(timestamp // size)
            if window != current:
                current = window
                per_key = windows[window]
                if window < oldest_open:
                    oldest_open = window
            key = event.key
            accumulator = per_key.get(key)
            if accumulator is None:
                accumulator = initial()
            per_key[key] = reducer(accumulator, event.value)
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
        start = window * self.window_seconds
        self._emitted.extend(
            _window_results(
                start, start + self.window_seconds, self._windows.pop(window)
            )
        )

    def flush(self) -> Iterable[WindowResult]:
        for window in sorted(self._windows):
            self._emit_window(window)
        self._oldest_open = float("inf")
        return self.take_emitted()

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
        initial: Callable[[], Any] = _zero,
    ) -> None:
        _check_window("window_seconds", window_seconds)
        _check_window("slide_seconds", slide_seconds)
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
        # every window with 0 <= start <= t < start + size.  From the
        # latest start (the window ``t // slide`` names) back, until a
        # window ends at or before t, as every earlier one then does:
        # at most ceil(size / slide) windows, one more for rounding.
        # ``size // slide`` offsets are one too few when the slide does
        # not divide the size (``0.3 // 0.1 == 2.0``).
        size = self.window_seconds
        slide = self.slide_seconds
        windows = self._windows
        reducer = self.reducer
        initial = self.initial
        offsets = range(math.ceil(size / slide) + 1)
        for event in events:
            timestamp = event.timestamp
            last_start = int(timestamp // slide)
            for offset in offsets:
                start_index = last_start - offset
                start = start_index * slide
                if start < 0 or timestamp >= start + size:
                    break
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
            results.extend(
                _window_results(
                    start,
                    start + self.window_seconds,
                    self._windows[start_index],
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

    events_in: int
    results: list[WindowResult]
    #: Per-event queueing latency (departure − arrival), simulated.
    latencies: list[float]
    #: Events per second over the stream's time extent; None when the
    #: stream has no extent (fewer than two distinct timestamps).
    arrival_rate: float | None
    service_rate: float
    #: Events still queued when the source ended (backlog).
    final_backlog_seconds: float

    @property
    def keeps_up(self) -> bool:
        """Whether processing kept up with the arrival speed.

        A stream without extent keeps up when it is at most one event;
        two or more arriving at one instant are a burst no finite
        service rate keeps up with.
        """
        if self.arrival_rate is None:
            return self.events_in < 2
        return self.service_rate >= self.arrival_rate

class StreamingEngine(Engine):
    """Runs topologies over event streams with a queueing-time model."""

    name = "streaming"
    software_stack = "stream processor (real-time analytics substitute)"

    def __init__(self, service_seconds_per_event: float = 50e-6) -> None:
        super().__init__()
        if service_seconds_per_event <= 0:
            raise EngineError(
                "service_seconds_per_event must be positive, got "
                f"{service_seconds_per_event}"
            )
        self.service_seconds_per_event = service_seconds_per_event


    def run(self, topology: Topology, events: Sequence[StreamEvent]) -> StreamRunReport:
        """Process an event stream through a topology.

        Operator-major: each operator takes the whole ordered run
        through :meth:`StreamOperator.process_many` before the next one
        sees what it let through.  An :class:`EventColumns` is ordered
        and queued by its timestamp column and reaches the first
        operator as columns.
        """
        ordered = _in_time_order(events)
        stamps = (
            ordered.timestamps.tolist()
            if type(ordered) is EventColumns
            else list(map(_TIMESTAMP, ordered))
        )
        service_seconds = self.service_seconds_per_event
        operators = topology.operators
        latencies: list[float] = []
        record_latency = latencies.append
        departure = 0.0
        for timestamp in stamps:
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

        span = stamps[-1] - stamps[0] if len(stamps) > 1 else 0.0
        arrival_rate = (len(stamps) - 1) / span if span > 0 else None
        backlog = max(0.0, departure - (stamps[-1] if stamps else 0.0))
        return StreamRunReport(
            events_in=len(ordered),
            results=results,
            latencies=latencies,
            arrival_rate=arrival_rate,
            service_rate=1.0 / self.service_seconds_per_event,
            final_backlog_seconds=backlog,
        )
