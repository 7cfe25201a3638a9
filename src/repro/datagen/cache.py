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

When constructed with a byte budget (``max_resident_bytes``) and a
``spill_dir``, entries that would push the resident total past the budget
are spilled to disk as a chunked pickle stream instead of being dropped:
a spilled entry still counts as cached, its records can be re-streamed
chunk by chunk via :meth:`DatasetCache.get_source` without ever holding
the full list in memory, and a materializing hit loads it back and makes
it resident again.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.datagen.base import DataSet, DataType
from repro.datagen.handoff import (
    STREAM_CHUNK_RECORDS,
    FileStreamSource,
    write_stream,
)
from repro.observability import current_tracer

#: A fully-resolved cache key; see :meth:`DatasetCache.make_key`.
CacheKey = tuple

#: Records per pickled chunk in a spill file (the chunk-stream format is
#: shared with the process pool's dataset handoff — see
#: :mod:`repro.datagen.handoff`).
SPILL_CHUNK_RECORDS = STREAM_CHUNK_RECORDS


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
    #: Entries spilled to disk since construction (a counter).
    spills: int = 0
    #: Hits served from spilled entries (a counter).
    spill_hits: int = 0
    #: Entries currently living on disk (a gauge).
    spilled_entries: int = 0
    #: Estimated bytes of in-memory entries at snapshot time (a gauge).
    resident_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits / self.requests) if self.requests else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta between this snapshot and an earlier one.

        Counters subtract; gauges stay this snapshot's values.
        """
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            entries=self.entries,
            spills=self.spills - earlier.spills,
            spill_hits=self.spill_hits - earlier.spill_hits,
            spilled_entries=self.spilled_entries,
            resident_bytes=self.resident_bytes,
        )

    def as_dict(self) -> dict[str, Any]:
        """The JSON-friendly form reports embed.

        Spill fields appear only when spilling has happened, so reports
        from memory-unconstrained runs keep their historical shape.
        """
        payload: dict[str, Any] = {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }
        if self.spills or self.spill_hits or self.spilled_entries:
            payload["spills"] = self.spills
            payload["spill_hits"] = self.spill_hits
            payload["spilled_entries"] = self.spilled_entries
            payload["resident_bytes"] = self.resident_bytes
        return payload


@dataclass
class _Entry:
    """One cache slot: resident (``dataset``) or spilled (``path``)."""

    dataset: DataSet | None
    nbytes: int
    path: Path | None = None
    # Header fields preserved for spilled entries so the source protocol
    # works without touching the spill file.
    name: str = ""
    data_type: DataType = DataType.TEXT
    metadata: dict[str, Any] = field(default_factory=dict)
    num_records: int = 0

    @property
    def resident(self) -> bool:
        return self.dataset is not None


class SpilledDatasetSource(FileStreamSource):
    """A dataset source re-streaming a spilled cache entry from disk.

    Satisfies :class:`~repro.datagen.source.DatasetSource`: batches are
    read chunk by chunk from the pickle stream (the shared chunk-stream
    format of :mod:`repro.datagen.handoff`), so peak memory is one
    chunk regardless of how large the spilled data set is.
    """


class DatasetCache:
    """An LRU cache of generated :class:`DataSet` objects.

    Entries are shared, not copied — callers must treat cached data sets
    as immutable, the same contract the runner already applies when it
    shares one data set across repeats and engines.

    ``max_resident_bytes`` bounds the estimated in-memory footprint; when
    the budget is exceeded, least-recently-used entries are spilled to
    ``spill_dir`` (kept cached, re-streamable) if one is configured, or
    evicted outright if not.
    """

    def __init__(
        self,
        max_entries: int | None = 32,
        max_resident_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        if max_resident_bytes is not None and max_resident_bytes <= 0:
            raise ValueError(
                "max_resident_bytes must be positive or None, got "
                f"{max_resident_bytes}"
            )
        self.max_entries = max_entries
        self.max_resident_bytes = max_resident_bytes
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self._key_locks: dict[CacheKey, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.spills = 0
        self.spill_hits = 0

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

    @staticmethod
    def fingerprint(key: CacheKey) -> str:
        """The sha256 content address of one cache key.

        Stable across processes (keys are tuples of primitives), so a
        parent can ship the fingerprint to a pool worker and both sides
        agree on which deterministic generation it names.
        """
        return hashlib.sha256(repr(key).encode()).hexdigest()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get_or_generate(
        self, key: CacheKey, factory: Callable[[], DataSet]
    ) -> DataSet:
        """Return the cached data set for ``key``, generating on miss.

        Concurrent callers with the same key block on a per-key lock so
        the factory runs exactly once; callers with different keys
        generate concurrently.  A hit on a spilled entry loads it back
        into memory (and counts as a spill hit).
        """
        dataset = self._lookup(key, materialize=True)
        if dataset is not None:
            return dataset
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            try:
                dataset = self._lookup(key, materialize=True)
                if dataset is not None:
                    return dataset
                dataset = factory()
                self.put(key, dataset, _count_miss=True)
                current_tracer().count("cache.misses")
                return dataset
            finally:
                # Always retire the per-key lock — including when the
                # factory raises.  Leaking it would leave every later
                # caller of this key serializing on a dead lock forever.
                with self._lock:
                    self._key_locks.pop(key, None)

    def get_source(self, key: CacheKey):
        """The cached entry as a dataset source, or ``None`` on miss.

        A resident entry returns its :class:`DataSet`; a spilled entry
        returns a :class:`SpilledDatasetSource` that re-streams from disk
        *without* loading the records back into memory — the bounded-
        memory read path for consumers that iterate batches.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            current_tracer().count("cache.hits")
            if entry.resident:
                return entry.dataset
            self.spill_hits += 1
            current_tracer().count("cache.spill_hits")
            return SpilledDatasetSource(
                path=entry.path,
                name=entry.name,
                data_type=entry.data_type,
                metadata=entry.metadata,
                num_records=entry.num_records,
            )

    def _lookup(self, key: CacheKey, materialize: bool) -> DataSet | None:
        """A hit (restoring a spilled entry if needed), or None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            current_tracer().count("cache.hits")
            if entry.resident:
                return entry.dataset
            # Spilled: load it back and make it resident again.
            self.spill_hits += 1
            current_tracer().count("cache.spill_hits")
            source = SpilledDatasetSource(
                path=entry.path,
                name=entry.name,
                data_type=entry.data_type,
                metadata=entry.metadata,
                num_records=entry.num_records,
            )
            dataset = source.materialize()
            entry.path.unlink(missing_ok=True)
            entry.dataset = dataset
            entry.path = None
            self._enforce_budget_locked(keep=key)
            return dataset

    def put(
        self, key: CacheKey, dataset: DataSet, _count_miss: bool = False
    ) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            if _count_miss:
                self.misses += 1
            old = self._entries.pop(key, None)
            if old is not None and old.path is not None:
                old.path.unlink(missing_ok=True)
            self._entries[key] = _Entry(
                dataset=dataset,
                nbytes=(
                    dataset.known_bytes
                    if dataset.known_bytes is not None
                    else dataset.estimated_bytes()
                ),
                name=dataset.name,
                data_type=dataset.data_type,
                metadata=dict(dataset.metadata),
                num_records=dataset.num_records,
            )
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    _, evicted = self._entries.popitem(last=False)
                    if evicted.path is not None:
                        evicted.path.unlink(missing_ok=True)
            self._enforce_budget_locked(keep=None)

    def size_of(self, dataset: DataSet) -> int:
        """``dataset.estimated_bytes()``, from its entry when it has one.

        :meth:`put` sized the data set it was handed (or took the size
        it carried, ``known_bytes``); a caller holding that same object
        (what :meth:`get_or_generate` returns) reads the number back
        instead of walking every record again.
        """
        with self._lock:
            for entry in self._entries.values():
                if entry.dataset is dataset:
                    return entry.nbytes
        return dataset.estimated_bytes()

    def _enforce_budget_locked(self, keep: CacheKey | None) -> None:
        """Spill (or evict) LRU resident entries until under budget.

        ``keep`` protects one entry — the one a caller is about to return
        a reference to — from being chosen, unless it is the only
        resident entry left.
        """
        if self.max_resident_bytes is None:
            return
        while self._resident_bytes_locked() > self.max_resident_bytes:
            victim_key = None
            for candidate_key, candidate in self._entries.items():
                if candidate.resident and candidate_key != keep:
                    victim_key = candidate_key
                    break
            if victim_key is None:
                # Only `keep` (or nothing) is resident; over budget with a
                # single entry is accepted — the caller holds it anyway.
                return
            entry = self._entries[victim_key]
            if self.spill_dir is None:
                del self._entries[victim_key]
                continue
            self._spill_locked(victim_key, entry)

    def _resident_bytes_locked(self) -> int:
        return sum(e.nbytes for e in self._entries.values() if e.resident)

    def _spill_locked(self, key: CacheKey, entry: _Entry) -> None:
        """Write one resident entry to disk and drop its records."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spill-{self.fingerprint(key)[:16]}.pkl"
        with path.open("wb") as handle:
            write_stream(handle, entry.dataset)
        entry.dataset = None
        entry.path = path
        self.spills += 1
        current_tracer().count("cache.spills")

    def export_source(self, key: CacheKey) -> Any:
        """The cached entry in its cheapest exportable shape, or ``None``.

        Used by the process pool's dataset handoff: a resident entry
        returns its :class:`DataSet` (to be serialized once into shared
        memory), a spilled entry its :class:`SpilledDatasetSource` (the
        spill file ships as a path — zero new bytes).  Unlike
        :meth:`get_source`, this touches neither the counters nor the
        LRU order: exporting is bookkeeping, not a consumer request, so
        it must not skew the hit/miss deltas reports attach to runs.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.resident:
                return entry.dataset
            return SpilledDatasetSource(
                path=entry.path,
                name=entry.name,
                data_type=entry.data_type,
                metadata=entry.metadata,
                num_records=entry.num_records,
            )

    def peek(self, key: CacheKey) -> DataSet | None:
        """The cached entry, without touching counters or LRU order.

        Spilled entries return ``None`` from here — peeking must not do
        disk I/O; use :meth:`get_source` to read one.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry.dataset if entry is not None else None

    def clear(self) -> None:
        """Drop every entry (and spill file) and reset the counters."""
        with self._lock:
            for entry in self._entries.values():
                if entry.path is not None:
                    entry.path.unlink(missing_ok=True)
            self._entries.clear()
            self._key_locks.clear()
            self.hits = 0
            self.misses = 0
            self.spills = 0
            self.spill_hits = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """A typed snapshot of the hit/miss counters for run reports."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                entries=len(self._entries),
                spills=self.spills,
                spill_hits=self.spill_hits,
                spilled_entries=sum(
                    1 for e in self._entries.values() if not e.resident
                ),
                # Tracked only when a budget is set, so budget-free caches
                # keep their historical (all-zero-gauges) snapshot shape.
                resident_bytes=(
                    self._resident_bytes_locked()
                    if self.max_resident_bytes is not None
                    else 0
                ),
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
            f"misses={self.misses}, spills={self.spills})"
        )
