"""Cloud-OLTP workloads: the YCSB operation mixes on NoSQL and DBMS.

YCSB (reference [9] of the paper) compared NoSQL stores against a
relational database with the same serving workloads; this module keeps
that shape: the identical operation mix runs against
:class:`~repro.engines.nosql.store.NoSqlStore` (simulated service-time
latencies) and against :class:`~repro.engines.dbms.engine.DbmsEngine`
(measured execution latencies).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.engines.base import CostCounters
from repro.engines.dbms import DbmsEngine, col, lit
from repro.engines.nosql import (
    STANDARD_WORKLOADS,
    OpType,
    RequestDistribution,
    YcsbWorkloadSpec,
)
from repro.engines.nosql.store import NoSqlStore
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


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
        self._probabilities = weights / weights.sum()

    def next_op(self) -> OpType:
        index = int(self.rng.choice(len(self._op_types), p=self._probabilities))
        return self._op_types[index]

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
            op_type = sampler.next_op()
            started = time.perf_counter()
            if op_type is OpType.READ:
                engine.execute(
                    engine.query("usertable").where(
                        col("key") == lit(keys[sampler.next_key_index()])
                    )
                )
            elif op_type is OpType.UPDATE:
                engine.update(
                    "usertable",
                    col("key") == lit(keys[sampler.next_key_index()]),
                    {field_names[0]: "updated" * 14},
                )
            elif op_type is OpType.INSERT:
                row = (f"insert{inserted:012d}",) + tuple(
                    "inserted" for _ in field_names
                )
                inserted += 1
                engine.insert("usertable", [row])
            elif op_type is OpType.SCAN:
                start_key = keys[sampler.next_key_index()]
                engine.execute(
                    engine.query("usertable")
                    .where(col("key") >= lit(start_key))
                    .order_by("key")
                    .limit(sampler.scan_length())
                )
            else:  # READ_MODIFY_WRITE
                key = keys[sampler.next_key_index()]
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
            duration_seconds=sum(latencies),
            cost=CostCounters().merge(engine.counters),
            latencies=latencies,
            extra={"mix": spec.name},
        )
