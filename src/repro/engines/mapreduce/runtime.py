"""The MapReduce execution engine.

Runs :class:`~repro.engines.mapreduce.job.MapReduceJob` definitions over
in-memory (key, value) pairs with the full Hadoop phase structure:

input splits → map → (combine) → partition → sort → reduce

Every phase updates Hadoop-style counters and the uniform
:class:`~repro.engines.base.CostCounters`; a :class:`ClusterModel`
additionally reports the makespan a simulated N-node cluster would
achieve for the same task bag.

Map tasks (one per input split) and reduce tasks (one per partition) are
independent and run in the order they are cut.  Each task accumulates
into its own counter set, published once when the task ends; the engine
merges the task-local counters in that order.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro._util import batched, chunked
from repro.core.errors import EngineError
from repro.engines.base import (
    ACCOUNTING_VERSION,
    CostCounters,
    Engine,
    EngineInfo,
    SimulatedClusterSpec,
    estimate_pair_bytes,
)
from repro.engines.mapreduce.cluster import ClusterModel, ClusterReport
from repro.engines.mapreduce.counters import CounterGroup
from repro.engines.mapreduce.job import MapReduceJob, shuffle_partitioner
from repro.observability import current_tracer

Pair = tuple[Any, Any]

#: Records per lazy input split when the input is an unsized stream and
#: the job doesn't set :attr:`~repro.engines.mapreduce.job.JobConf.split_records`.
DEFAULT_SPLIT_RECORDS = 1024


@dataclass
class JobResult:
    """Everything one job run produced: output pairs plus evidence."""

    job_name: str
    output: list[Pair]
    counters: CounterGroup
    wall_seconds: float
    cluster_report: ClusterReport
    cost: CostCounters = field(default_factory=CostCounters)

    @property
    def simulated_seconds(self) -> float:
        return self.cluster_report.simulated_seconds


def _publish(counters: CounterGroup, group: str, **amounts: int) -> None:
    """Add a task's locally accumulated counts to ``group``, in order.

    Tasks count in plain local integers and publish once, here.  A zero
    is skipped: a counter nothing ever incremented stays absent from
    :meth:`CounterGroup.snapshot`, as when it was bumped per record.
    """
    for counter, amount in amounts.items():
        if amount:
            counters.increment(group, counter, amount)


class MapReduceEngine(Engine):
    """A from-scratch MapReduce runtime with a simulated cluster model."""

    accounting_version = ACCOUNTING_VERSION

    def __init__(self, cluster: SimulatedClusterSpec | None = None) -> None:
        super().__init__()
        self.cluster_model = ClusterModel(cluster)

    @property
    def info(self) -> EngineInfo:
        return EngineInfo(
            name="mapreduce",
            system_type="MapReduce",
            software_stack="Hadoop-like MapReduce runtime",
            input_format="key-value",
            description=(
                "in-memory map/combine/shuffle/sort/reduce with Hadoop-style "
                "counters and a simulated multi-node cluster"
            ),
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, job: MapReduceJob, pairs: Iterable[Pair]) -> JobResult:
        """Execute one job over the input pairs.

        ``pairs`` may be any iterable: a list behaves as before, while a
        lazy stream (e.g. a flattened
        :class:`~repro.datagen.source.DatasetSource`) is consumed split
        by split without ever being materialized — the runtime's input-
        side memory is then one split, not the whole data set.

        Each Hadoop phase records a span (with per-split/per-partition
        record counters) into the current tracer, so a traced run shows
        where a job's wall time went.
        """
        started = time.perf_counter()
        counters = CounterGroup()
        cost = CostCounters()
        tracer = current_tracer()

        with tracer.span("mapreduce-job", job=job.name):
            with tracer.span("map-phase") as span:
                map_outputs, shuffle_bytes, map_task_records = (
                    self._map_phase(job, pairs, counters, cost)
                )
                if span:
                    # A task's cluster-model weight is its input plus its
                    # (post-combine) output; the split is the input part.
                    span.set(
                        splits=len(map_outputs),
                        records_per_split=[
                            weight - len(task_output)
                            for weight, task_output in zip(
                                map_task_records, map_outputs
                            )
                        ],
                    )
                    span.incr("input_records",
                              counters.get("map", "input_records"))
                    span.incr("output_records",
                              counters.get("map", "output_records"))
            with tracer.span("shuffle-phase") as span:
                partitions = self._shuffle_phase(
                    job, map_outputs, shuffle_bytes, counters, cost
                )
                if span:
                    span.set(partitions=len(partitions))
                    span.incr("shuffle_bytes", shuffle_bytes)
            with tracer.span("reduce-phase") as span:
                output, reduce_task_records = self._reduce_phase(
                    job, partitions, counters, cost
                )
                if span:
                    span.set(tasks=len(partitions),
                             records_per_task=list(reduce_task_records))
                    span.incr("output_records",
                              counters.get("reduce", "output_records"))

        wall_seconds = time.perf_counter() - started
        cluster_report = self.cluster_model.simulate_job(
            map_task_records, shuffle_bytes, reduce_task_records
        )
        self.counters.merge(cost)
        return JobResult(
            job_name=job.name,
            output=output,
            counters=counters,
            wall_seconds=wall_seconds,
            cluster_report=cluster_report,
            cost=cost,
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _input_splits(
        self, job: MapReduceJob, pairs: Iterable[Pair]
    ) -> Iterable[Sequence[Pair]]:
        """Cut the input into map splits, lazily when possible.

        ``split_records`` forces fixed-size lazy splits; otherwise sized
        inputs keep the historical near-equal division into
        ``num_map_tasks`` splits, and unsized streams fall back to
        fixed-size lazy splits so they are never materialized.
        """
        if job.conf.split_records is not None:
            return batched(pairs, job.conf.split_records)
        if isinstance(pairs, Sequence):
            return chunked(pairs, job.conf.num_map_tasks)
        return batched(pairs, DEFAULT_SPLIT_RECORDS)

    def _map_phase(
        self,
        job: MapReduceJob,
        pairs: Iterable[Pair],
        counters: CounterGroup,
        cost: CostCounters,
    ) -> tuple[list[list[Pair]], int, list[int]]:
        """Run map tasks over input splits; returns per-task outputs.

        Splits are cut lazily, so a streamed input is held one split at
        a time.  Each task has its own counter set, merged here in split
        order.  The (post-combine) map output is sized by its task, once
        per pair; the shuffle moves exactly those bytes.
        """
        outputs: list[list[Pair]] = []
        output_bytes = 0
        task_records: list[int] = []
        for split in self._input_splits(job, pairs):
            task_output, task_bytes, task_counters, task_cost, records = (
                self._run_map_task(job, split)
            )
            counters.merge(task_counters)
            cost.merge(task_cost)
            outputs.append(task_output)
            output_bytes += task_bytes
            task_records.append(records)
        return outputs, output_bytes, task_records

    def _run_map_task(
        self, job: MapReduceJob, split: Sequence[Pair]
    ) -> tuple[list[Pair], int, CounterGroup, CostCounters, int]:
        """One map task over one split, with task-local accounting.

        Nothing is counted per record: lists and groups know their
        lengths, pairs are sized in one call per list, and the task's
        :class:`CounterGroup` / :class:`CostCounters` are written once,
        after the last record.  A mapper that raises therefore still
        leaves nothing behind.
        """
        mapper = job.mapper
        input_bytes = estimate_pair_bytes(split)
        combine_groups = combined = 0
        if job.combiner is not None:
            # Combine once at task end: group the pairs as they are
            # mapped instead of listing them only to regroup the list.
            grouped: dict[Any, list[Any]] = defaultdict(list)
            for key, value in split:
                for out_pair in mapper(key, value):
                    if not isinstance(out_pair, tuple) or len(out_pair) != 2:
                        raise _not_a_pair(job, "mapper", out_pair)
                    out_key, out_value = out_pair
                    grouped[out_key].append(out_value)
            mapped = sum(map(len, grouped.values()))
            combine_groups = len(grouped)
            task_output = _combine(job, grouped)
            combined = len(task_output)
        else:
            task_output = []
            emit = task_output.append
            for key, value in split:
                for out_pair in mapper(key, value):
                    if not isinstance(out_pair, tuple) or len(out_pair) != 2:
                        raise _not_a_pair(job, "mapper", out_pair)
                    emit(out_pair)
            mapped = len(task_output)

        counters = CounterGroup()
        _publish(counters, "map", input_records=len(split),
                 output_records=mapped)
        _publish(counters, "combine", input_groups=combine_groups,
                 output_records=combined)
        cost = CostCounters(
            records_read=len(split),
            bytes_read=input_bytes,
            compute_ops=mapped + combined,
        )
        return (
            task_output,
            estimate_pair_bytes(task_output),
            counters,
            cost,
            len(split) + len(task_output),
        )

    def _shuffle_phase(
        self,
        job: MapReduceJob,
        map_outputs: list[list[Pair]],
        shuffle_bytes: int,
        counters: CounterGroup,
        cost: CostCounters,
    ) -> list[dict[Any, list[Any]]]:
        """Partition and group map output; returns per-reducer groups.

        ``shuffle_bytes`` is the size the map tasks measured for exactly
        these pairs, so the shuffle charges it without re-walking them.
        """
        num_reducers = job.conf.num_reduce_tasks
        partitioner = shuffle_partitioner(job.conf)
        partitions: list[dict[Any, list[Any]]] = [
            defaultdict(list) for _ in range(num_reducers)
        ]
        for task_output in map_outputs:
            for key, value in task_output:
                index = partitioner(key, num_reducers)
                if not 0 <= index < num_reducers:
                    raise EngineError(
                        f"partitioner returned {index} outside "
                        f"[0, {num_reducers})"
                    )
                partitions[index][key].append(value)
        _publish(counters, "shuffle", records=sum(map(len, map_outputs)))
        counters.increment("shuffle", "bytes", shuffle_bytes)
        cost.network_bytes += shuffle_bytes
        return partitions

    def _reduce_phase(
        self,
        job: MapReduceJob,
        partitions: list[dict[Any, list[Any]]],
        counters: CounterGroup,
        cost: CostCounters,
    ) -> tuple[list[Pair], list[int]]:
        """Sort (optionally) and reduce each partition.

        One reduce task per partition; outputs are concatenated and
        counters merged in partition order.
        """
        output: list[Pair] = []
        task_records: list[int] = []
        for partition in partitions:
            task_output, task_counters, task_cost, records = (
                self._run_reduce_task(job, partition)
            )
            counters.merge(task_counters)
            cost.merge(task_cost)
            output.extend(task_output)
            task_records.append(records)
        return output, task_records

    def _run_reduce_task(
        self, job: MapReduceJob, partition: dict[Any, list[Any]]
    ) -> tuple[list[Pair], CounterGroup, CostCounters, int]:
        """One reduce task over one partition, with task-local accounting."""
        reducer = job.reducer
        sort_values = job.conf.sort_values
        output: list[Pair] = []
        keys = list(partition)
        if job.conf.sort_keys:
            keys.sort(key=_sort_token)
        records = 0
        for key in keys:
            values = partition[key]
            if sort_values:
                values = sorted(values, key=_sort_token)
            records += len(values)
            for out_pair in reducer(key, values):
                if not isinstance(out_pair, tuple) or len(out_pair) != 2:
                    raise _not_a_pair(job, "reducer", out_pair)
                output.append(out_pair)
        counters = CounterGroup()
        _publish(counters, "reduce", input_groups=len(keys),
                 input_records=records, output_records=len(output))
        cost = CostCounters(
            records_written=len(output),
            bytes_written=estimate_pair_bytes(output),
            compute_ops=len(output),
        )
        return output, counters, cost, records


def _not_a_pair(job: MapReduceJob, role: str, emitted: Any) -> EngineError:
    return EngineError(
        f"{role} of job {job.name!r} must yield (key, value) pairs, "
        f"got {emitted!r}"
    )


def _combine(job: MapReduceJob, grouped: dict[Any, list[Any]]) -> list[Pair]:
    """Run the combiner over one map task's groups."""
    combiner = job.combiner
    assert combiner is not None
    combined: list[Pair] = []
    for key, values in grouped.items():
        combined.extend(combiner(key, values))
    return combined


def _sort_token(value: Any) -> tuple[int, Any]:
    """A total order over mixed-type keys: numbers first, then by text."""
    if isinstance(value, bool):
        return (1, str(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))
