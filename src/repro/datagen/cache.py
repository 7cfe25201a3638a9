"""A content-addressed cache of deterministically generated data sets.

Figure 3's generation process is deterministic by construction: a
generator seeded with ``s`` always produces the same records for the same
volume and partitioning (see :func:`repro.datagen.base.mix_seed`).  That
makes the generated data *content-addressable* — the tuple (generator
name, seed, parameters, volume, partitions, fit source) fully determines
the output — so cross-engine comparisons, repeats, and sweep points that
prescribe identical data can share one in-memory data set instead of
regenerating it once per consumer (the BDGS scalable-generation
requirement, applied to the single-host simulator).

One bounded, thread-safe, single-flight LRU (:class:`LruCache`) serves
this cache and both tables of the fitted-model cache
(:mod:`repro.datagen.models`): concurrent requests for the *same* key
make the value once and share it, while distinct keys make theirs
concurrently.  Hit/miss counters are kept so run reports can surface how
much generation work was avoided.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.datagen.base import DataSet
from repro.observability import current_tracer

#: A fully-resolved cache key; see :meth:`DatasetCache.make_key`.
CacheKey = tuple

#: Data sets kept per cache, least recently used dropped first.
MAX_DATASETS = 32


@dataclass(frozen=True)
class CacheStats:
    """A typed snapshot of the cache's hit/miss counters.

    Immutable by design: snapshots taken before and after an operation
    can be subtracted (:meth:`since`) to report what *that operation*
    cost, instead of process-lifetime totals that earlier unrelated
    runs inflate.
    """

    hits: int = 0
    misses: int = 0
    #: Entries resident at snapshot time (a gauge, not a counter).
    entries: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits / self.requests) if self.requests else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta between this snapshot and an earlier one.

        Counters subtract; the gauge stays this snapshot's value.
        """
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            entries=self.entries,
        )

    def as_dict(self) -> dict[str, Any]:
        """The JSON-friendly form reports embed."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


class LruCache:
    """At most ``capacity`` values by key, least recently used dropped first.

    Thread-safe.  :meth:`get_or_make` is single-flight per key: one
    caller makes a missing value while the others asking for that key
    wait and then share it, and distinct keys are made concurrently.
    ``hits`` and ``misses`` count lookups that found a value and values
    made; a make that raises counts nothing and leaves no entry.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        #: key → the lock its one maker holds while making it.
        self._flights: dict[Hashable, threading.Lock] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        """The value for ``key`` (a hit, now the most recent), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def get_or_make(
        self, key: Hashable, make: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """``(value, made)``: the cached value, or ``make()``'s, kept.

        ``made`` is true for the one call that ran ``make``.  Whoever
        held the key's flight before this call may have filled it, so
        the lookup is repeated inside the flight.  The flight is retired
        even when ``make`` raises, or every later caller of that key
        would wait on a dead one.
        """
        value = self.get(key)
        if value is not None:
            return value, False
        with self._lock:
            flight = self._flights.setdefault(key, threading.Lock())
        with flight:
            try:
                value = self.get(key)
                made = value is None
                if made:
                    value = make()
                    self.put(key, value)
                    with self._lock:
                        self.misses += 1
                return value, made
            finally:
                with self._lock:
                    self._flights.pop(key, None)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def peek(self, key: Hashable) -> Any:
        """The cached entry, without touching counters or LRU order."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> CacheStats:
        """A typed snapshot of the hit/miss counters for run reports."""
        with self._lock:
            return CacheStats(
                hits=self.hits, misses=self.misses, entries=len(self._entries)
            )

    def after_fork(self) -> None:
        """Make a forked child's copy usable: a new lock, no flights.

        A lock or a flight held at fork time has no thread in the child
        to release it; the entries and counters are kept.
        """
        self._lock = threading.Lock()
        self._flights = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class DatasetCache(LruCache):
    """An LRU cache of generated :class:`DataSet` objects.

    Entries are shared, not copied — callers must treat cached data sets
    as immutable, the same contract the runner already applies when it
    shares one data set across repeats and engines.  At most
    :data:`MAX_DATASETS` are kept.
    """

    def __init__(self) -> None:
        super().__init__(MAX_DATASETS)

    @staticmethod
    def make_key(
        generator: str,
        seed: int,
        volume: int,
        num_partitions: int = 1,
        fit_on: str | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> CacheKey:
        """The content address of one deterministic generation request.

        Every field that can change the produced records participates:
        the registered generator name, its seed, the requested volume,
        the partition count (partitioned generation interleaves streams
        differently from single-partition generation), the veracity seed
        data, and any extra generator parameters.
        """
        frozen_params = (
            tuple(sorted(params.items())) if params else ()
        )
        return (
            str(generator),
            int(seed),
            int(volume),
            int(num_partitions),
            fit_on,
            frozen_params,
        )

    def get_or_generate(
        self, key: CacheKey, factory: Callable[[], DataSet]
    ) -> DataSet:
        """The cached data set for ``key``, generated once on a miss.

        Counts ``cache.hits`` or ``cache.misses`` on the current tracer.
        """
        dataset, made = self.get_or_make(key, factory)
        current_tracer().count("cache.misses" if made else "cache.hits")
        return dataset
