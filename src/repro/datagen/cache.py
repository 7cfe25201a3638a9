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

The cache is thread-safe: concurrent requests for the *same* key generate
once and share the result, while distinct keys generate concurrently.
Hit/miss counters are kept so run reports can surface how much generation
work was avoided.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro._util import single_flight
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


class DatasetCache:
    """An LRU cache of generated :class:`DataSet` objects.

    Entries are shared, not copied — callers must treat cached data sets
    as immutable, the same contract the runner already applies when it
    shares one data set across repeats and engines.  At most
    :data:`MAX_DATASETS` are kept.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[CacheKey, DataSet] = OrderedDict()
        self._lock = threading.Lock()
        self._key_locks: dict[CacheKey, threading.Lock] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get_or_generate(
        self, key: CacheKey, factory: Callable[[], DataSet]
    ) -> DataSet:
        """Return the cached data set for ``key``, generating on miss.

        Concurrent callers with the same key block on a per-key lock so
        the factory runs exactly once; callers with different keys
        generate concurrently.
        """
        dataset = self._lookup(key)
        if dataset is not None:
            return dataset
        with single_flight(self._lock, self._key_locks, key):
            dataset = self._lookup(key)
            if dataset is not None:
                return dataset
            dataset = factory()
            self.put(key, dataset, _count_miss=True)
            current_tracer().count("cache.misses")
            return dataset

    def _lookup(self, key: CacheKey) -> DataSet | None:
        """A hit, or None on miss."""
        with self._lock:
            dataset = self._entries.get(key)
            if dataset is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        current_tracer().count("cache.hits")
        return dataset

    def put(
        self, key: CacheKey, dataset: DataSet, _count_miss: bool = False
    ) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            if _count_miss:
                self.misses += 1
            self._entries.pop(key, None)
            self._entries[key] = dataset
            while len(self._entries) > MAX_DATASETS:
                self._entries.popitem(last=False)

    def peek(self, key: CacheKey) -> DataSet | None:
        """The cached entry, without touching counters or LRU order."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._key_locks.clear()
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """A typed snapshot of the hit/miss counters for run reports."""
        with self._lock:
            return CacheStats(
                hits=self.hits, misses=self.misses, entries=len(self._entries)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatasetCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
