"""A hash-partitioned NoSQL key-value/column store.

The substitute for the Cassandra/HBase/PNUTS class of systems that YCSB
targets (Section 4.2): keys hash to partitions, rows hold named fields,
writes replicate to R partitions, and every operation reports a simulated
latency from a small service-time model (base cost + replication +
per-partition queueing).  Scans use an ordered key index, as YCSB's scan
workloads assume a range-partitioned or ordered store.

Reads and writes take a tunable :class:`ConsistencyLevel` (ONE / QUORUM /
ALL), reproducing the consistency/latency trade-off the YCSB paper
studied across Cassandra, HBase, and PNUTS: ONE is fastest but may
return stale replicas after an asynchronously propagated write; QUORUM
overlaps with the write quorum and stays fresh; ALL is freshest and
slowest.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Any

import numpy as np

from repro._util import batched, stable_hash, stable_hashes
from repro.core.errors import EngineError
from repro.datagen.base import DEFAULT_CHUNK_SIZE
from repro.engines.base import (
    ACCOUNTING_VERSION,
    Engine,
    EngineInfo,
    estimate_pair_bytes,
)

Fields = dict[str, Any]


class ConsistencyLevel(enum.Enum):
    """How many replicas an operation must touch."""

    ONE = "one"
    QUORUM = "quorum"
    ALL = "all"

    def replicas_required(self, replication: int) -> int:
        if self is ConsistencyLevel.ONE:
            return 1
        if self is ConsistencyLevel.QUORUM:
            return replication // 2 + 1
        return replication


@dataclass
class LatencyModel:
    """Simulated service times (seconds) for the store's operations."""

    read_seconds: float = 350e-6
    write_seconds: float = 500e-6
    scan_seconds_per_row: float = 60e-6
    #: Extra per-replica write cost (network + remote apply).
    replica_write_seconds: float = 250e-6
    #: Queueing: added fraction per outstanding op on the hot partition.
    contention_factor: float = 0.15
    #: Multiplicative jitter std-dev (log-normal).
    jitter_sigma: float = 0.10

    def sample(
        self, rng: np.random.Generator, base: float, queue_depth: int
    ) -> float:
        """One latency draw given a base service time and queue depth."""
        queued = base * (1.0 + self.contention_factor * queue_depth)
        if self.jitter_sigma <= 0:
            return queued
        return float(queued * rng.lognormal(0.0, self.jitter_sigma))


@dataclass
class OpResult:
    """Outcome of one store operation."""

    ok: bool
    latency_seconds: float
    fields: Fields | None = None
    rows: list[tuple[str, Fields]] = field(default_factory=list)


class NoSqlStore(Engine):
    """An in-memory partitioned KV store with a latency model."""

    accounting_version = ACCOUNTING_VERSION

    def __init__(
        self,
        num_partitions: int = 8,
        replication: int = 1,
        latency: LatencyModel | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_partitions <= 0:
            raise EngineError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        if not 1 <= replication <= num_partitions:
            raise EngineError(
                f"replication must be in [1, {num_partitions}], got {replication}"
            )
        self.num_partitions = num_partitions
        self.replication = replication
        self.latency = latency or LatencyModel()
        self._rng = np.random.default_rng(seed)
        self._partitions: list[dict[str, Fields]] = [
            {} for _ in range(num_partitions)
        ]
        #: Per-partition row versions (monotone per key) for freshness.
        self._versions: list[dict[str, int]] = [
            {} for _ in range(num_partitions)
        ]
        #: ``str`` key → home partition: a key is hashed once per store,
        #: however often it is inserted, read, updated and scanned (the
        #: MapReduce shuffle keeps the same memo per shuffle).
        self._homes: dict[str, int] = {}
        #: Ordered key index for scans.
        self._sorted_keys: list[str] = []
        #: Per-partition in-flight depth for the queueing model.
        self._partition_load: list[int] = [0] * num_partitions
        #: Writes not yet propagated to all replicas (weak consistency).
        self._pending_sync: list[tuple[int, str, Fields, int]] = []
        self._write_clock = 0
        self.total_latency_seconds = 0.0

    @property
    def info(self) -> EngineInfo:
        return EngineInfo(
            name="nosql",
            system_type="NoSQL",
            software_stack="partitioned key-value store (Cassandra/HBase substitute)",
            input_format="key-value",
            description=(
                "hash partitioning, R-way replication, ordered scan index, "
                "service-time latency model"
            ),
        )

    # ------------------------------------------------------------------

    def _partition_of(self, key: str) -> int:
        if type(key) is not str:
            # 1, True and 1.0 are one dict key and three strings.
            return stable_hash(str(key), 131) % self.num_partitions
        home = self._homes.get(key)
        if home is None:
            home = stable_hash(key, 131) % self.num_partitions
            self._homes[key] = home
        return home

    def _replica_partitions(self, key: str) -> list[int]:
        home = self._partition_of(key)
        return [(home + offset) % self.num_partitions for offset in range(self.replication)]

    def _charge(self, partition: int, base: float, extra: float = 0.0) -> float:
        depth = self._partition_load[partition]
        self._partition_load[partition] += 1
        latency = self.latency.sample(self._rng, base + extra, depth)
        self._partition_load[partition] = max(0, self._partition_load[partition] - 1)
        self.total_latency_seconds += latency
        return latency

    # ------------------------------------------------------------------
    # Operations (YCSB's verb set: insert, read, update, scan, delete)
    # ------------------------------------------------------------------

    def _apply_write(
        self, partition: int, key: str, fields: Fields, version: int,
        merge: bool,
    ) -> None:
        if merge and key in self._partitions[partition]:
            self._partitions[partition][key].update(fields)
        else:
            self._partitions[partition][key] = dict(fields)
        self._versions[partition][key] = version

    def _write(
        self, replicas: list[int], key: str, fields: Fields,
        consistency: ConsistencyLevel, merge: bool,
    ) -> OpResult:
        """Apply a write to ``replicas``, the key's replica partitions.

        The caller has already hashed the key to look the row up, so it
        hands the placement over instead of having it computed again.
        """
        self._write_clock += 1
        version = self._write_clock
        required = consistency.replicas_required(self.replication)
        for partition in replicas[:required]:
            self._apply_write(partition, key, fields, version, merge)
        for partition in replicas[required:]:
            # Asynchronous propagation: applied later by anti-entropy.
            self._pending_sync.append((partition, key, dict(fields), version))
        extra = self.latency.replica_write_seconds * (required - 1)
        latency = self._charge(replicas[0], self.latency.write_seconds, extra)
        self.counters.records_written += 1
        written = estimate_pair_bytes(fields.items())
        self.counters.bytes_written += written
        self.counters.network_bytes += written * (self.replication - 1)
        return OpResult(ok=True, latency_seconds=latency)

    def insert(
        self, key: str, fields: Fields,
        consistency: ConsistencyLevel = ConsistencyLevel.ALL,
    ) -> OpResult:
        """Insert (or overwrite) a row, replicated R ways.

        With consistency below ALL, the remaining replicas receive the
        write asynchronously (see :meth:`anti_entropy`).
        """
        replicas = self._replica_partitions(key)
        if key not in self._partitions[replicas[0]]:
            position = bisect.bisect_left(self._sorted_keys, key)
            if (
                position >= len(self._sorted_keys)
                or self._sorted_keys[position] != key
            ):
                bisect.insort(self._sorted_keys, key)
        return self._write(replicas, key, fields, consistency, merge=False)

    def bulk_load(
        self,
        records: Any,
        consistency: ConsistencyLevel = ConsistencyLevel.ALL,
    ) -> list[float]:
        """Insert a stream of ``(key, fields)`` records, a batch at a time.

        Equal to :meth:`insert` on each record in turn (state, counters
        and the latency model's draws included); returns the latency of
        every insert, in order.  ``records`` may be any iterable of
        pairs or a dataset source (anything with ``batches()``); either
        is consumed batch by batch, so loading never materializes the
        full record list.
        """
        batches = getattr(records, "batches", None)
        latencies: list[float] = []
        for batch in (
            batched(records, DEFAULT_CHUNK_SIZE)
            if batches is None
            else (batch.records for batch in batches())
        ):
            if self._loads_as_one(batch):
                latencies += self._load_batch(batch)
            else:
                latencies += [
                    self.insert(key, fields, consistency).latency_seconds
                    for key, fields in batch
                ]
        return latencies

    def _loads_as_one(self, batch: list[tuple[Any, Fields]]) -> bool:
        """Whether :meth:`_load_batch` equals the inserts one by one.

        It does for unreplicated rows (one replica whatever the
        consistency level, nothing left to propagate) under distinct
        ``str`` keys, with a jitter draw per insert to vectorize.
        """
        if self.replication > 1 or self.latency.jitter_sigma <= 0:
            return False
        keys = {key for key, _ in batch if type(key) is str}
        return len(keys) == len(batch) > 0

    def _load_batch(self, batch: list[tuple[str, Fields]]) -> list[float]:
        """:meth:`insert` of every record of a batch :meth:`_loads_as_one` passed.

        The keys are hashed and the rows sized as one batch each (sizes
        add up over pairs, however a caller cuts them), the jitter is
        one vector draw, the scan index is merged with one sort, and the
        clock, the counters and the latency total are written from
        locals at the end.
        """
        partitions = self._partitions
        versions = self._versions
        version = self._write_clock
        home_of = self._homes
        unseen = [key for key, _ in batch if key not in home_of]
        home_of.update(
            zip(
                unseen,
                (
                    digest % self.num_partitions
                    for digest in stable_hashes(unseen, 131)
                ),
            )
        )
        homes = []
        new_keys = []
        for key, fields in batch:
            home = home_of[key]
            homes.append(home)
            rows = partitions[home]
            if key not in rows:
                new_keys.append(key)
            rows[key] = dict(fields)
            version += 1
            versions[home][key] = version
        written = estimate_pair_bytes(
            chain.from_iterable(fields.items() for _, fields in batch)
        )
        self._write_clock = version
        if new_keys:
            self._sorted_keys = sorted(self._sorted_keys + new_keys)
        self.counters.records_written += len(batch)
        self.counters.bytes_written += written
        model = self.latency
        # What ``LatencyModel.sample`` charges a write on each partition
        # at the depth it has now, times one log-normal draw per row.
        base = model.write_seconds + model.replica_write_seconds * (
            self.replication - 1
        )
        queued = np.array(
            [
                base * (1.0 + model.contention_factor * depth)
                for depth in self._partition_load
            ]
        )
        latencies = (
            queued[homes]
            * self._rng.lognormal(0.0, model.jitter_sigma, size=len(batch))
        ).tolist()
        # Added one at a time, as the inserts would: float sums depend
        # on their order.
        self.total_latency_seconds = reduce(
            add, latencies, self.total_latency_seconds
        )
        return latencies

    def read(
        self,
        key: str,
        field_names: list[str] | None = None,
        consistency: ConsistencyLevel = ConsistencyLevel.QUORUM,
    ) -> OpResult:
        """Read one row, contacting ``consistency``-many replicas.

        Among contacted replicas the freshest version wins; ONE contacts
        a single (rotating) replica and may observe a stale row after a
        weakly consistent write.
        """
        replicas = self._replica_partitions(key)
        required = consistency.replicas_required(self.replication)
        if consistency is ConsistencyLevel.ONE and self.replication > 1:
            # Load balancing: rotate across replicas (may hit a stale one).
            start = int(self._rng.integers(self.replication))
            contacted = [replicas[start]]
        else:
            contacted = replicas[:required]
        extra = self.latency.read_seconds * 0.5 * (len(contacted) - 1)
        latency = self._charge(contacted[0], self.latency.read_seconds, extra)
        self.counters.records_read += 1
        best_row: Fields | None = None
        best_version = -1
        for partition in contacted:
            row = self._partitions[partition].get(key)
            if row is None:
                continue
            version = self._versions[partition].get(key, 0)
            if version > best_version:
                best_row, best_version = row, version
        if best_row is None:
            return OpResult(ok=False, latency_seconds=latency)
        if field_names is not None:
            best_row = {
                name: best_row[name] for name in field_names
                if name in best_row
            }
        return OpResult(ok=True, latency_seconds=latency, fields=dict(best_row))

    def update(
        self, key: str, fields: Fields,
        consistency: ConsistencyLevel = ConsistencyLevel.ALL,
    ) -> OpResult:
        """Merge fields into an existing row.

        A key that is not there costs, and counts as, the read that
        found it missing.
        """
        replicas = self._replica_partitions(key)
        if key not in self._partitions[replicas[0]]:
            latency = self._charge(replicas[0], self.latency.read_seconds)
            self.counters.records_read += 1
            return OpResult(ok=False, latency_seconds=latency)
        return self._write(replicas, key, fields, consistency, merge=True)

    def anti_entropy(self) -> int:
        """Propagate pending weak writes to their replicas; returns count.

        The background repair process of eventually consistent stores;
        after it runs, every replica holds the newest version.
        """
        applied = 0
        applied_bytes = 0
        for partition, key, fields, version in self._pending_sync:
            if self._versions[partition].get(key, 0) < version:
                self._apply_write(partition, key, fields, version, merge=True)
                applied_bytes += estimate_pair_bytes(fields.items())
                applied += 1
        self.counters.network_bytes += applied_bytes
        self._pending_sync.clear()
        return applied

    @property
    def pending_replications(self) -> int:
        """Writes still awaiting propagation (weak-consistency debt)."""
        return len(self._pending_sync)

    def delete(self, key: str) -> OpResult:
        """Remove a row from every replica (always fully consistent)."""
        replicas = self._replica_partitions(key)
        existed = key in self._partitions[replicas[0]]
        for partition in replicas:
            self._partitions[partition].pop(key, None)
            self._versions[partition].pop(key, None)
        # Drop any in-flight weak writes for the key (tombstone wins).
        self._pending_sync = [
            entry for entry in self._pending_sync if entry[1] != key
        ]
        if existed:
            position = bisect.bisect_left(self._sorted_keys, key)
            if (
                position < len(self._sorted_keys)
                and self._sorted_keys[position] == key
            ):
                del self._sorted_keys[position]
        latency = self._charge(replicas[0], self.latency.write_seconds)
        self.counters.records_written += 1
        return OpResult(ok=existed, latency_seconds=latency)

    def scan(self, start_key: str, count: int) -> OpResult:
        """Read up to ``count`` rows in key order starting at ``start_key``."""
        if count <= 0:
            raise EngineError(f"scan count must be positive, got {count}")
        position = bisect.bisect_left(self._sorted_keys, start_key)
        keys = self._sorted_keys[position : position + count]
        rows: list[tuple[str, Fields]] = []
        for key in keys:
            partition = self._partition_of(key)
            row = self._partitions[partition].get(key)
            if row is not None:
                rows.append((key, dict(row)))
        self.counters.records_read += len(rows)
        home = self._partition_of(start_key)
        latency = self._charge(
            home,
            self.latency.read_seconds
            + self.latency.scan_seconds_per_row * max(1, len(rows)),
        )
        return OpResult(ok=True, latency_seconds=latency, rows=rows)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sorted_keys)

    def partition_sizes(self) -> list[int]:
        """Row counts per partition (replicas included) — balance checks."""
        return [len(partition) for partition in self._partitions]

