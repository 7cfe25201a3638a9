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
ignore.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.base import _EXACT_SIZERS, DataGenerator, DataSet, DataType


class EventKind(enum.Enum):
    """The kind of state change an event carries."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class StreamEvent:
    """One timestamped event in a data stream."""

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
    ) -> list[StreamEvent]:
        count = self.partition_volume(volume, partition, num_partitions)
        if count == 0:
            return []
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
        # Whole columns from here on: the kind of every event in two
        # comparisons, each column converted to Python values once, and
        # the events built in one pass over the four.
        kind_codes = np.where(
            kind_draws < self.update_fraction,
            0,
            np.where(
                kind_draws < self.update_fraction + self.delete_fraction, 1, 2
            ),
        )
        return list(
            map(
                StreamEvent,
                np.asarray(timestamps, dtype=np.float64).tolist(),
                keys.tolist(),
                values.tolist(),
                _KINDS_BY_CODE[kind_codes].tolist(),
            )
        )

    def measured_rate(self, events: Sequence[StreamEvent]) -> float:
        """Events per second implied by a generated stream's timestamps."""
        if len(events) < 2:
            raise GenerationError("need at least two events to measure a rate")
        span = max(event.timestamp for event in events) - min(
            event.timestamp for event in events
        )
        if span <= 0:
            raise GenerationError("stream timestamps have no extent")
        return (len(events) - 1) / span


def default_poisson_stream_generator() -> StreamGenerator:
    """The registry's ``poisson-stream``: 1000 events/s, one update in five."""
    return StreamGenerator(
        arrivals=PoissonArrivals(rate=1000.0), update_fraction=0.2
    )
