"""Cloud-OLTP workloads: the YCSB operation mixes on NoSQL and DBMS.

YCSB (reference [9] of the paper) compared NoSQL stores against a
relational database with the same serving workloads; this module keeps
that shape: the identical operation mix runs against
:class:`~repro.engines.nosql.store.NoSqlStore` (simulated service-time
latencies) and against :class:`~repro.engines.dbms.engine.DbmsEngine`
(measured execution latencies).  The workloads themselves are YCSB's
core abstractions (Cooper et al. 2010): an operation mix plus a
request-key distribution, with the standard workloads A–F as presets.
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._util import choice_cdf, sequential_sum
from repro.core.errors import EngineError, ExecutionError
from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.engines.base import CostCounters
from repro.engines.dbms import DbmsEngine, col, lit
from repro.engines.nosql.store import NoSqlStore
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


class RequestDistribution(enum.Enum):
    """How request keys are chosen over the loaded key space."""

    UNIFORM = "uniform"
    ZIPFIAN = "zipfian"
    LATEST = "latest"


class OpType(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"
    READ_MODIFY_WRITE = "read-modify-write"


@dataclass
class YcsbWorkloadSpec:
    """An operation mix over a loaded record set (one YCSB workload)."""

    name: str
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    read_modify_write_proportion: float = 0.0
    request_distribution: RequestDistribution = RequestDistribution.ZIPFIAN
    max_scan_length: int = 100

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.read_modify_write_proportion
        )
        if not 0.999 <= total <= 1.001:
            raise EngineError(
                f"workload {self.name!r} proportions sum to {total}, expected 1.0"
            )

    def operation_mix(self) -> list[tuple[OpType, float]]:
        return [
            (OpType.READ, self.read_proportion),
            (OpType.UPDATE, self.update_proportion),
            (OpType.INSERT, self.insert_proportion),
            (OpType.SCAN, self.scan_proportion),
            (OpType.READ_MODIFY_WRITE, self.read_modify_write_proportion),
        ]


def workload_a() -> YcsbWorkloadSpec:
    """Update heavy: 50% read / 50% update, zipfian."""
    return YcsbWorkloadSpec("A", read_proportion=0.5, update_proportion=0.5)


def workload_b() -> YcsbWorkloadSpec:
    """Read mostly: 95% read / 5% update, zipfian."""
    return YcsbWorkloadSpec("B", read_proportion=0.95, update_proportion=0.05)


def workload_c() -> YcsbWorkloadSpec:
    """Read only, zipfian."""
    return YcsbWorkloadSpec("C", read_proportion=1.0)


def workload_d() -> YcsbWorkloadSpec:
    """Read latest: 95% read / 5% insert, latest distribution."""
    return YcsbWorkloadSpec(
        "D",
        read_proportion=0.95,
        insert_proportion=0.05,
        request_distribution=RequestDistribution.LATEST,
    )


def workload_e() -> YcsbWorkloadSpec:
    """Short ranges: 95% scan / 5% insert, zipfian."""
    return YcsbWorkloadSpec(
        "E", scan_proportion=0.95, insert_proportion=0.05, max_scan_length=100
    )


def workload_f() -> YcsbWorkloadSpec:
    """Read-modify-write: 50% read / 50% RMW, zipfian."""
    return YcsbWorkloadSpec(
        "F", read_proportion=0.5, read_modify_write_proportion=0.5
    )


STANDARD_WORKLOADS = {
    "A": workload_a,
    "B": workload_b,
    "C": workload_c,
    "D": workload_d,
    "E": workload_e,
    "F": workload_f,
}


def _spec_for(workload_mix: str | YcsbWorkloadSpec) -> YcsbWorkloadSpec:
    if isinstance(workload_mix, YcsbWorkloadSpec):
        return workload_mix
    factory = STANDARD_WORKLOADS.get(workload_mix.upper())
    if factory is None:
        raise ExecutionError(
            f"unknown YCSB workload {workload_mix!r}; "
            f"available: {sorted(STANDARD_WORKLOADS)}"
        )
    return factory()


class _MixSampler:
    """Draws the operation sequence and request keys for a YCSB run."""

    def __init__(
        self, spec: YcsbWorkloadSpec, record_count: int, seed: int
    ) -> None:
        self.spec = spec
        self.record_count = record_count
        self.rng = np.random.default_rng(seed)
        mix = spec.operation_mix()
        self._op_types = [op for op, _ in mix]
        weights = np.array([weight for _, weight in mix])
        self._cdf = choice_cdf(weights / weights.sum())

    def next_op(self) -> OpType:
        # What ``choice`` over the mix returned: its one uniform, inverted.
        return self._op_types[bisect_right(self._cdf, self.rng.random())]

    def next_key_index(self) -> int:
        if self.spec.request_distribution is RequestDistribution.UNIFORM:
            return int(self.rng.integers(0, self.record_count))
        rank = int(self.rng.zipf(1.35)) - 1
        if self.spec.request_distribution is RequestDistribution.LATEST:
            return (self.record_count - 1 - rank) % self.record_count
        return rank % self.record_count

    def scan_length(self) -> int:
        return int(self.rng.integers(1, self.spec.max_scan_length + 1))


class YcsbWorkload(Workload):
    """The YCSB operation mixes (A–F) over preloaded key-value records."""

    name = "ycsb"
    domain = ApplicationDomain.CLOUD_OLTP
    category = WorkloadCategory.ONLINE_SERVICE
    data_type = DataType.KEY_VALUE
    abstract_operations = tuple(operations("read", "write", "scan", "update"))
    pattern = MultiOperationPattern(operations("read", "write", "scan", "update"))

    # ------------------------------------------------------------------

    def run_nosql(
        self,
        engine: NoSqlStore,
        dataset: DataSet,
        workload_mix: str | YcsbWorkloadSpec = "A",
        operation_count: int = 1000,
        seed: int = 0,
        **params: Any,
    ) -> WorkloadResult:
        spec = _spec_for(workload_mix)
        keys = [key for key, _ in dataset.records]
        engine.bulk_load(dataset.records)
        sampler = _MixSampler(spec, len(keys), seed)
        latencies: list[float] = []
        simulated = 0.0
        inserted = 0
        for _ in range(operation_count):
            op_type = sampler.next_op()
            if op_type is OpType.READ:
                latency = engine.read(keys[sampler.next_key_index()]).latency_seconds
            elif op_type is OpType.UPDATE:
                latency = engine.update(
                    keys[sampler.next_key_index()], {"field0": "updated" * 14}
                ).latency_seconds
            elif op_type is OpType.INSERT:
                new_key = f"insert{inserted:012d}"
                inserted += 1
                latency = engine.insert(
                    new_key, {"field0": "inserted" * 12}
                ).latency_seconds
            elif op_type is OpType.SCAN:
                latency = engine.scan(
                    keys[sampler.next_key_index()], sampler.scan_length()
                ).latency_seconds
            else:  # READ_MODIFY_WRITE
                key = keys[sampler.next_key_index()]
                latency = engine.read(key).latency_seconds
                latency += engine.update(
                    key, {"field0": "rmw" * 33}
                ).latency_seconds
            latencies.append(latency)
            simulated += latency
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output={"operations": operation_count, "mix": spec.name},
            records_in=dataset.num_records,
            records_out=operation_count,
            duration_seconds=0.0,  # filled by the dispatcher
            cost=CostCounters().merge(engine.counters),
            latencies=latencies,
            simulated_seconds=simulated,
            extra={"mix": spec.name},
        )

    # ------------------------------------------------------------------

    def run_dbms(
        self,
        engine: DbmsEngine,
        dataset: DataSet,
        workload_mix: str | YcsbWorkloadSpec = "A",
        operation_count: int = 1000,
        seed: int = 0,
        **params: Any,
    ) -> WorkloadResult:
        spec = _spec_for(workload_mix)
        if not dataset.records:
            raise ExecutionError("YCSB requires a non-empty record set")
        field_names = sorted(dataset.records[0][1])
        schema = ("key",) + tuple(field_names)
        if not engine.catalog.has_table("usertable"):
            engine.create_table("usertable", schema)
            engine.insert(
                "usertable",
                [
                    (key,) + tuple(fields[name] for name in field_names)
                    for key, fields in dataset.records
                ],
            )
            engine.create_index("usertable", "key")
        keys = [key for key, _ in dataset.records]
        sampler = _MixSampler(spec, len(keys), seed)
        latencies: list[float] = []
        inserted = 0
        for _ in range(operation_count):
            # Draw before the clock starts, in the order the store's run
            # draws (op, key, scan length): a latency times the query or
            # update, not the workload's own sampling.
            op_type = sampler.next_op()
            if op_type is not OpType.INSERT:
                key = keys[sampler.next_key_index()]
            if op_type is OpType.SCAN:
                scan_length = sampler.scan_length()
            started = time.perf_counter()
            if op_type is OpType.READ:
                engine.execute(
                    engine.query("usertable").where(col("key") == lit(key))
                )
            elif op_type is OpType.UPDATE:
                engine.update(
                    "usertable",
                    col("key") == lit(key),
                    {field_names[0]: "updated" * 14},
                )
            elif op_type is OpType.INSERT:
                row = (f"insert{inserted:012d}",) + tuple(
                    "inserted" for _ in field_names
                )
                inserted += 1
                engine.insert("usertable", [row])
            elif op_type is OpType.SCAN:
                engine.execute(
                    engine.query("usertable")
                    .where(col("key") >= lit(key))
                    .order_by("key")
                    .limit(scan_length)
                )
            else:  # READ_MODIFY_WRITE
                engine.execute(
                    engine.query("usertable").where(col("key") == lit(key))
                )
                engine.update(
                    "usertable",
                    col("key") == lit(key),
                    {field_names[0]: "rmw" * 33},
                )
            latencies.append(time.perf_counter() - started)
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output={"operations": operation_count, "mix": spec.name},
            records_in=dataset.num_records,
            records_out=operation_count,
            duration_seconds=sequential_sum(latencies),
            cost=CostCounters().merge(engine.counters),
            latencies=latencies,
            extra={"mix": spec.name},
        )
