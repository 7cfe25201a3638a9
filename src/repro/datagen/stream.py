"""Stream data generation.

Section 2.1 of the paper gives data velocity a third meaning for streaming
systems: events arrive continuously and must be processed at their arrival
speed.  This module generates timestamped event streams with controllable
arrival processes:

* :class:`PoissonArrivals` — memoryless arrivals at a fixed rate;
* :class:`BurstyArrivals` — a two-state modulated process (quiet/burst),
  modelling the bursty traffic of real services;
* :class:`UniformArrivals` — fixed inter-arrival gaps (a paced source);
* :class:`EmpiricalArrivals` — bootstrap-resamples the inter-arrival gaps
  of a real stream (the veracity-preserving option).

:class:`StreamGenerator` combines an arrival process with a key
distribution and an operation mix (insert/update/delete) — the *update
frequency* facet of velocity that Section 5.1 says existing benchmarks
ignore.  It returns a stream as :class:`EventColumns`, the drawn columns,
which build their :class:`StreamEvent` objects only when one is read.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._util import build_by_column
from repro.core.errors import GenerationError
from repro.datagen.base import _EXACT_SIZERS, DataGenerator, DataSet, DataType


class EventKind(enum.Enum):
    """The kind of state change an event carries."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One timestamped event in a data stream.

    Slotted: an event has no ``__dict__``, and a generator builds a
    stream's events a column at a time (``_util.build_by_column``).
    ``hash(event)`` includes the kind's, which is an enum's and differs
    from process to process: compare hashes within one process only.
    """

    timestamp: float
    key: int
    value: float
    kind: EventKind = EventKind.INSERT


#: What ``repr(StreamEvent(...))`` adds around the four field reprs.
_EVENT_FRAME = len("StreamEvent(timestamp=, key=, value=, kind=)")
#: ``len(repr(kind))`` by ``id(kind)``: enum members are singletons that
#: live as long as the module, and hashing one runs Python code.
_KIND_REPR_SIZE = {id(kind): len(repr(kind)) for kind in EventKind}


def _event_size(event: StreamEvent) -> int:
    """``len(str(event))``, the size of an event as a record.

    Added up from the field reprs, so sizing a stream does not build one
    dataclass repr (recursion guard, enum repr) per event.
    """
    kind_size = _KIND_REPR_SIZE.get(id(event.kind))
    if kind_size is None:  # not an EventKind: whatever its repr says
        kind_size = len(repr(event.kind))
    return (
        _EVENT_FRAME
        + len(repr(event.timestamp))
        + len(repr(event.key))
        + len(repr(event.value))
        + kind_size
    )


_EXACT_SIZERS[StreamEvent] = _event_size


class ArrivalProcess(ABC):
    """Produces inter-arrival gaps (seconds) between consecutive events."""

    @abstractmethod
    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` inter-arrival gaps."""

    def timestamps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Cumulative event timestamps starting from the first gap."""
        if count <= 0:
            return np.zeros(0)
        return np.cumsum(self.gaps(rng, count))


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrival gaps at ``rate`` events/second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise GenerationError(f"rate must be positive, got {self.rate}")

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=count)


@dataclass(frozen=True)
class UniformArrivals(ArrivalProcess):
    """Constant inter-arrival gaps (a perfectly paced source)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise GenerationError(f"rate must be positive, got {self.rate}")

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, 1.0 / self.rate)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (quiet ↔ burst).

    The process alternates between a quiet state emitting at ``low_rate``
    and a burst state emitting at ``high_rate``; after each event it
    switches state with probability ``switch_probability``.
    """

    low_rate: float
    high_rate: float
    switch_probability: float = 0.05

    def __post_init__(self) -> None:
        if self.low_rate <= 0 or self.high_rate <= 0:
            raise GenerationError("rates must be positive")
        if not 0.0 < self.switch_probability <= 1.0:
            raise GenerationError(
                f"switch_probability must be in (0, 1], got {self.switch_probability}"
            )

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        gaps = np.empty(count)
        bursting = False
        for index in range(count):
            rate = self.high_rate if bursting else self.low_rate
            gaps[index] = rng.exponential(1.0 / rate)
            if rng.random() < self.switch_probability:
                bursting = not bursting
        return gaps


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally rate-modulated arrivals (a synthetic "day").

    The instantaneous rate follows ``rate * (1 + amplitude * sin(2πt /
    period))``, so a schedule longer than one period shows a peak and a
    trough around the base rate.  Each gap is drawn exponentially at the
    rate in effect at the current cumulative time (a stepwise
    approximation of the non-homogeneous Poisson process) — state lives
    inside one :meth:`gaps` call, so a schedule must be drawn in a
    single call to keep the phase continuous.
    """

    rate: float
    period: float = 60.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise GenerationError(f"rate must be positive, got {self.rate}")
        if self.period <= 0:
            raise GenerationError(
                f"period must be positive, got {self.period}"
            )
        if not 0.0 <= self.amplitude < 1.0:
            raise GenerationError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        gaps = np.empty(count)
        elapsed = 0.0
        two_pi = 2.0 * np.pi
        for index in range(count):
            instantaneous = self.rate * (
                1.0 + self.amplitude * np.sin(two_pi * elapsed / self.period)
            )
            gap = rng.exponential(1.0 / instantaneous)
            gaps[index] = gap
            elapsed += gap
        return gaps


class EmpiricalArrivals(ArrivalProcess):
    """Bootstrap-resamples the inter-arrival gaps of a real stream."""

    def __init__(self, real_timestamps: Sequence[float]) -> None:
        ordered = np.sort(np.asarray(real_timestamps, dtype=np.float64))
        gaps = np.diff(ordered)
        gaps = gaps[gaps > 0]
        if len(gaps) == 0:
            raise GenerationError(
                "need at least two distinct timestamps to learn arrivals"
            )
        self._gaps = gaps

    def gaps(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(self._gaps, size=count, replace=True)


#: ``generate_partition`` draws a code per event and looks the kinds up
#: here in one indexing operation (an object array, so the members
#: themselves come back).
_KINDS_BY_CODE = np.array(
    [EventKind.UPDATE, EventKind.DELETE, EventKind.INSERT], dtype=object
)
#: ``len(repr(kind))`` by kind code.
_KIND_SIZES = [len(repr(kind)) for kind in _KINDS_BY_CODE]


class EventColumns(Sequence[StreamEvent]):
    """A stream's events as the generator drew them: four columns.

    An immutable sequence of :class:`StreamEvent`: ``timestamps``,
    ``keys`` and ``values`` are read-only numpy arrays of one length,
    ``kinds`` codes into :data:`_KINDS_BY_CODE`.  The events are built
    from the columns, once, the first time an element is read (every
    event is then ``timestamps.tolist()[i]``, ``keys.tolist()[i]``, ...).
    Until then the streaming engine's queue and counting door and
    :meth:`estimated_bytes` read the columns.  Indexing, slicing (a
    list), iteration, ``==`` and ``repr`` are those of the list of
    events; a copy or a pickle carries the columns;
    :func:`repro.datagen.models.content_digest` addresses the list.
    Two threads that read a sequence first at once may each build the
    events: equal lists, and the sequence keeps one.
    """

    __slots__ = ("timestamps", "keys", "values", "kinds", "_events")

    def __init__(
        self, timestamps: Any, keys: Any, values: Any, kinds: Any
    ) -> None:
        columns = [np.asarray(column) for column in (timestamps, keys, values, kinds)]
        if any(column.ndim != 1 for column in columns) or len(
            {len(column) for column in columns}
        ) != 1:
            raise GenerationError("event columns must be 1-D and of one length")
        for column in columns:
            column.flags.writeable = False
        self.timestamps, self.keys, self.values, self.kinds = columns
        self._events: list[StreamEvent] | None = None

    @classmethod
    def concatenate(cls, parts: Sequence["EventColumns"]) -> "EventColumns":
        """The events of ``parts`` one after the other."""
        return cls(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in ("timestamps", "keys", "values", "kinds")
            )
        )

    def take(self, order: Any) -> "EventColumns":
        """The events at the positions ``order`` lists, in that order."""
        return EventColumns(
            self.timestamps[order], self.keys[order],
            self.values[order], self.kinds[order],
        )

    def events(self) -> list[StreamEvent]:
        """The events, built a column at a time on the first call."""
        events = self._events
        if events is None:
            events = self._events = build_by_column(
                StreamEvent,
                self.timestamps.tolist(),
                self.keys.tolist(),
                self.values.tolist(),
                _KINDS_BY_CODE[self.kinds].tolist(),
            )
        return events

    def estimated_bytes(self) -> int:
        """``sum(map(_event_size, self))``, from the columns."""
        text = sum(
            sum(map(len, map(repr, column.tolist())))
            for column in (self.timestamps, self.keys, self.values)
        )
        per_kind = np.bincount(self.kinds, minlength=len(_KIND_SIZES)).tolist()
        return (
            _EVENT_FRAME * len(self)
            + text
            + sum(map(int.__mul__, per_kind, _KIND_SIZES))
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index: Any) -> Any:
        return self.events()[index]

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self.events())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventColumns):
            other = other.events()
        elif not isinstance(other, list):
            return NotImplemented
        return self.events() == other

    __hash__ = None  # type: ignore[assignment]  # as a list's

    def __repr__(self) -> str:
        return repr(self.events())

    def __reduce__(self) -> tuple:
        return (EventColumns, (self.timestamps, self.keys, self.values, self.kinds))


_EXACT_SIZERS[EventColumns] = EventColumns.estimated_bytes


class StreamGenerator(DataGenerator):
    """Generates timestamped event streams with a controllable update mix.

    ``update_fraction`` and ``delete_fraction`` control the *data updating
    frequency* (Section 2.1's second meaning of velocity); keys are
    Zipf-skewed over ``key_space`` so updates concentrate on hot keys.
    """

    data_type = DataType.STREAM

    def __init__(
        self,
        arrivals: ArrivalProcess | None = None,
        key_space: int = 1000,
        key_skew: float = 1.3,
        update_fraction: float = 0.0,
        delete_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.arrivals = arrivals or PoissonArrivals(rate=1000.0)
        if key_space <= 0:
            raise GenerationError(f"key_space must be positive, got {key_space}")
        if update_fraction < 0 or delete_fraction < 0:
            raise GenerationError("fractions must be non-negative")
        if update_fraction + delete_fraction > 1.0:
            raise GenerationError(
                "update_fraction + delete_fraction must not exceed 1.0"
            )
        self.key_space = key_space
        self.key_skew = key_skew
        self.update_fraction = update_fraction
        self.delete_fraction = delete_fraction

    def fit(self, real_data: DataSet) -> "StreamGenerator":
        """Learn the arrival process and update mix from a real stream."""
        events = list(real_data.records)
        if len(events) < 2:
            raise GenerationError("need at least two events to fit a stream model")
        timestamps = [event.timestamp for event in events]
        self.arrivals = EmpiricalArrivals(timestamps)
        kinds = [event.kind for event in events]
        total = len(kinds)
        self.update_fraction = kinds.count(EventKind.UPDATE) / total
        self.delete_fraction = kinds.count(EventKind.DELETE) / total
        keys = {event.key for event in events}
        self.key_space = max(keys) + 1 if keys else 1
        self._fitted = True
        return self

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> EventColumns:
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        timestamps = self.arrivals.timestamps(rng, count)
        if self.key_skew > 1.0:
            keys = np.minimum(
                rng.zipf(self.key_skew, size=count) - 1, self.key_space - 1
            )
        else:
            keys = rng.integers(0, self.key_space, size=count)
        values = rng.normal(0.0, 1.0, size=count)
        kind_draws = rng.random(count)
        # The kind of every event in two comparisons; the events are
        # built from these columns when something reads them.
        kind_codes = np.where(
            kind_draws < self.update_fraction,
            0,
            np.where(
                kind_draws < self.update_fraction + self.delete_fraction, 1, 2
            ),
        )
        return EventColumns(
            np.asarray(timestamps, dtype=np.float64), keys, values, kind_codes
        )

    def _concatenate(self, partitions: Iterator[EventColumns]) -> EventColumns:
        return EventColumns.concatenate(list(partitions))


def default_poisson_stream_generator() -> StreamGenerator:
    """The registry's ``poisson-stream``: 1000 events/s, one update in five."""
    return StreamGenerator(
        arrivals=PoissonArrivals(rate=1000.0), update_fraction=0.2
    )
