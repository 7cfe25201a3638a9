"""Truly hybrid workloads (Section 5.2).

The paper argues that "the truly hybrid workload, i.e. the workload
consist[ing] of the mix of various data processing operations and their
arriving rates and sequences, has not been adequately supported", and
that "profiling history logs of real applications is a good way to obtain
the representative arrival patterns."

This module implements both halves:

* :func:`profile_arrival_pattern` derives per-operation arrival rates and
  the operation sequence from a web-log data set;
* :class:`HybridWorkload` interleaves serving operations (reads/updates)
  with periodic analytics scans against one NoSQL store, following an
  arrival pattern — either supplied explicitly or profiled from logs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util import choice_cdf, sequential_sum
from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.engines.base import CostCounters
from repro.engines.nosql.store import NoSqlStore
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


@dataclass
class ArrivalPattern:
    """Per-operation arrival rates plus the observed operation sequence."""

    #: operation name → arrivals per second.
    rates: dict[str, float]
    #: The observed operation order (used to replay realistic sequences).
    sequence: list[str] = field(default_factory=list)

    @property
    def total_rate(self) -> float:
        return sequential_sum(self.rates.values())

    def mix_probabilities(self) -> dict[str, float]:
        total = self.total_rate
        if total <= 0:
            raise ExecutionError("arrival pattern has zero total rate")
        return {name: rate / total for name, rate in self.rates.items()}


#: How HTTP verbs map onto store operations when profiling web logs.
_METHOD_TO_OPERATION = {
    "GET": "read",
    "POST": "insert",
    "PUT": "update",
    "DELETE": "delete",
}


def profile_arrival_pattern(weblog: DataSet) -> ArrivalPattern:
    """Profile operation rates and sequence from a web-log data set.

    The paper's proposal made concrete: each log line's HTTP method maps
    to a store operation; rates come from operation counts over the log's
    time span.
    """
    if weblog.data_type is not DataType.WEB_LOG:
        raise ExecutionError(
            f"profiling requires web-log data, got {weblog.data_type.label}"
        )
    if len(weblog.records) < 2:
        raise ExecutionError("need at least two log records to profile rates")
    timestamps = [record["timestamp"] for record in weblog.records]
    span = max(timestamps) - min(timestamps)
    if span <= 0:
        raise ExecutionError("log records have no time extent")
    counts: Counter[str] = Counter()
    sequence: list[str] = []
    for record in weblog.records:
        operation = _METHOD_TO_OPERATION.get(record["method"], "read")
        counts[operation] += 1
        sequence.append(operation)
    rates = {name: count / span for name, count in counts.items()}
    return ArrivalPattern(rates=rates, sequence=sequence)


class HybridWorkload(Workload):
    """Serving + analytics operations interleaved per an arrival pattern.

    Runs against a NoSQL store: ``read``/``update``/``insert``/``delete``
    are point operations; every ``analytics_every`` operations a long
    scan (the analytics component) interleaves with the serving traffic.
    Reports per-operation-class latencies so the interference between
    components is measurable — the hybrid-vs-isolated ablation (E12).
    """

    name = "hybrid"
    domain = ApplicationDomain.CLOUD_OLTP
    category = WorkloadCategory.ONLINE_SERVICE
    data_type = DataType.KEY_VALUE
    abstract_operations = tuple(
        operations("read", "update", "insert", "delete", "scan")
    )
    pattern = MultiOperationPattern(
        operations("read", "update", "insert", "delete", "scan")
    )

    def run_nosql(
        self,
        engine: NoSqlStore,
        dataset: DataSet,
        arrival_pattern: ArrivalPattern | None = None,
        operation_count: int = 1000,
        analytics_every: int = 50,
        analytics_scan_length: int = 200,
        replay_sequence: bool = False,
        seed: int = 0,
        **params: Any,
    ) -> WorkloadResult:
        if not dataset.records:
            raise ExecutionError("hybrid workload needs preloaded records")
        keys = [key for key, _ in dataset.records]
        for key, fields in dataset.records:
            engine.insert(key, fields)
        pattern = arrival_pattern or ArrivalPattern(
            rates={"read": 70.0, "update": 20.0, "insert": 5.0, "delete": 5.0}
        )
        mix = pattern.mix_probabilities()
        names = sorted(mix)
        cdf = choice_cdf([mix[name] for name in names])
        rng = np.random.default_rng(seed)
        if replay_sequence and not pattern.sequence:
            raise ExecutionError(
                "replay_sequence requires an arrival pattern with a "
                "profiled operation sequence"
            )

        per_class: dict[str, list[float]] = {name: [] for name in names}
        per_class["scan"] = []
        simulated = 0.0
        inserted = 0
        serving_step = 0
        for step in range(operation_count):
            if analytics_every and step and step % analytics_every == 0:
                start = keys[int(rng.integers(len(keys)))]
                latency = engine.scan(start, analytics_scan_length).latency_seconds
                per_class["scan"].append(latency)
                simulated += latency
                continue
            if replay_sequence:
                # §5.2: replay the *sequence* of operations as profiled,
                # not just their rates (cycled past the log's end).
                name = pattern.sequence[serving_step % len(pattern.sequence)]
                serving_step += 1
                per_class.setdefault(name, [])
            else:
                name = names[bisect_right(cdf, rng.random())]
            if name == "read":
                latency = engine.read(keys[int(rng.integers(len(keys)))]).latency_seconds
            elif name == "update":
                latency = engine.update(
                    keys[int(rng.integers(len(keys)))], {"field0": "hybrid" * 16}
                ).latency_seconds
            elif name == "insert":
                new_key = f"hybrid{inserted:012d}"
                inserted += 1
                latency = engine.insert(new_key, {"field0": "new" * 33}).latency_seconds
            elif name == "delete":
                latency = engine.delete(keys[int(rng.integers(len(keys)))]).latency_seconds
            else:
                latency = engine.read(keys[int(rng.integers(len(keys)))]).latency_seconds
            per_class[name].append(latency)
            simulated += latency

        all_latencies = [
            latency for samples in per_class.values() for latency in samples
        ]
        mean_by_class = {
            name: (sequential_sum(samples) / len(samples) if samples else 0.0)
            for name, samples in per_class.items()
        }
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output={"mean_latency_by_class": mean_by_class},
            records_in=dataset.num_records,
            records_out=operation_count,
            duration_seconds=0.0,
            cost=CostCounters().merge(engine.counters),
            latencies=all_latencies,
            simulated_seconds=simulated,
            extra={
                "per_class_counts": {
                    name: len(samples) for name, samples in per_class.items()
                },
                "mix": mix,
            },
        )
