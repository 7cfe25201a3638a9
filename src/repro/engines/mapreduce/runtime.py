"""The MapReduce execution engine.

Runs :class:`~repro.engines.mapreduce.job.MapReduceJob` definitions over
in-memory (key, value) pairs with the full Hadoop phase structure:

input splits → map → (combine) → partition → sort → reduce

Every phase updates Hadoop-style counters and the uniform
:class:`~repro.engines.base.CostCounters`; a :class:`ClusterModel`
additionally reports the makespan a simulated N-node cluster would
achieve for the same task bag.

Map tasks (one per input split) and reduce tasks (one per partition) are
independent, so both phases fan out over a pluggable executor (see
:mod:`repro.execution.parallel`).  Each task accumulates into its own
counter set; the engine merges task-local counters in submission order,
so parallel runs are bit-identical to the serial path — same output
pairs in the same order, same counters, same costs.
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
    CostCounters,
    Engine,
    EngineInfo,
    SimulatedClusterSpec,
)
from repro.engines.mapreduce.cluster import ClusterModel, ClusterReport
from repro.engines.mapreduce.counters import CounterGroup
from repro.engines.mapreduce.job import JobChain, MapReduceJob
from repro.observability import current_tracer

Pair = tuple[Any, Any]

#: Records per lazy input split when the input is an unsized stream and
#: the job doesn't set :attr:`~repro.engines.mapreduce.job.JobConf.split_records`.
DEFAULT_SPLIT_RECORDS = 1024

#: Combiner flush size the ``layout="columnar"`` spec knob configures
#: (matches the DBMS column-batch size, so one "batch" means the same
#: order of magnitude across engines).
DEFAULT_COMBINE_BATCH_RECORDS = 1024


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


def _estimate_bytes(pair: Pair) -> int:
    key, value = pair
    return len(str(key)) + len(str(value))


class MapReduceEngine(Engine):
    """A from-scratch MapReduce runtime with a simulated cluster model."""

    def __init__(
        self,
        cluster: SimulatedClusterSpec | None = None,
        executor: Any = None,
        max_workers: int | None = None,
        combine_batch_records: int | None = None,
    ) -> None:
        super().__init__()
        if combine_batch_records is not None and combine_batch_records <= 0:
            raise EngineError(
                f"combine_batch_records must be positive, got "
                f"{combine_batch_records}"
            )
        #: Engine-wide default for combiner-side batch accumulation;
        #: a job's own ``conf.combine_batch_records`` takes precedence.
        self.combine_batch_records = combine_batch_records
        self.cluster_model = ClusterModel(cluster)
        # Imported lazily so the engines package never pulls the
        # execution package in at import time (the execution layer
        # already imports engine bases).
        from repro.execution.parallel import resolve_executor

        #: Runs map tasks and reduce tasks; "serial" (default) or
        #: "thread" — user functions are closures, so the process
        #: backend only works for module-level mappers/reducers.
        self.executor = resolve_executor(executor, max_workers)

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
                map_outputs, map_output_sizes, map_task_records = (
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
                    flushes = counters.get("combine", "flushes")
                    if flushes:
                        span.incr("combine_flushes", flushes)
                        span.incr(
                            "combine_flushed_records",
                            counters.get("combine", "flushed_records"),
                        )
                        span.incr(
                            "combine_max_flush_records",
                            counters.get("combine", "max_flush_records"),
                        )
            with tracer.span("shuffle-phase") as span:
                partitions, shuffle_bytes = self._shuffle_phase(
                    job, map_outputs, map_output_sizes, counters, cost
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

    def run_chain(self, chain: JobChain, pairs: Iterable[Pair]) -> list[JobResult]:
        """Execute a job pipeline; each job consumes the previous output."""
        results: list[JobResult] = []
        current: Sequence[Pair] = pairs
        for job in chain:
            result = self.run(job, current)
            results.append(result)
            current = result.output
        return results

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
    ) -> tuple[list[list[Pair]], list[list[int]], list[int]]:
        """Run map tasks over input splits; returns per-task outputs.

        Tasks run on the engine's executor, each with its own counter
        set; merging in submission order keeps the result bit-identical
        to the serial path.  Byte sizes of the (post-combine) map output
        are estimated here, once per pair, and reused by the shuffle.
        """
        splits = self._input_splits(job, pairs)
        task_results = self.executor.map(
            lambda split: self._run_map_task(job, split), splits
        )
        outputs: list[list[Pair]] = []
        output_sizes: list[list[int]] = []
        task_records: list[int] = []
        for task_output, task_sizes, task_counters, task_cost, records in (
            task_results
        ):
            counters.merge(task_counters)
            cost.merge(task_cost)
            outputs.append(task_output)
            output_sizes.append(task_sizes)
            task_records.append(records)
        return outputs, output_sizes, task_records

    def _run_map_task(
        self, job: MapReduceJob, split: Sequence[Pair]
    ) -> tuple[list[Pair], list[int], CounterGroup, CostCounters, int]:
        """One map task over one split, with task-local accounting."""
        counters = CounterGroup()
        cost = CostCounters()
        batch_records = (
            job.conf.combine_batch_records
            if job.conf.combine_batch_records is not None
            else self.combine_batch_records
        )
        accumulator: _CombineAccumulator | None = None
        if job.combiner is not None and batch_records is not None:
            accumulator = _CombineAccumulator(
                self, job, batch_records, counters, cost
            )
        task_output: list[Pair] = []
        for key, value in split:
            counters.increment("map", "input_records")
            cost.records_read += 1
            cost.bytes_read += _estimate_bytes((key, value))
            for out_pair in job.mapper(key, value):
                if not isinstance(out_pair, tuple) or len(out_pair) != 2:
                    raise EngineError(
                        f"mapper of job {job.name!r} must yield (key, value) "
                        f"pairs, got {out_pair!r}"
                    )
                counters.increment("map", "output_records")
                cost.compute_ops += 1
                if accumulator is not None:
                    accumulator.add(out_pair)
                else:
                    task_output.append(out_pair)
        if accumulator is not None:
            task_output = accumulator.finish()
        elif job.combiner is not None:
            task_output = self._combine(job, task_output, counters, cost)
        task_sizes = [_estimate_bytes(pair) for pair in task_output]
        return (
            task_output,
            task_sizes,
            counters,
            cost,
            len(split) + len(task_output),
        )

    def _combine(
        self,
        job: MapReduceJob,
        task_output: list[Pair],
        counters: CounterGroup,
        cost: CostCounters,
    ) -> list[Pair]:
        """Run the combiner on one map task's local output."""
        assert job.combiner is not None
        grouped: dict[Any, list[Any]] = defaultdict(list)
        for key, value in task_output:
            grouped[key].append(value)
        combined: list[Pair] = []
        for key, values in grouped.items():
            counters.increment("combine", "input_groups")
            for out_pair in job.combiner(key, values):
                combined.append(out_pair)
                counters.increment("combine", "output_records")
                cost.compute_ops += 1
        return combined

    def _shuffle_phase(
        self,
        job: MapReduceJob,
        map_outputs: list[list[Pair]],
        map_output_sizes: list[list[int]],
        counters: CounterGroup,
        cost: CostCounters,
    ) -> tuple[list[dict[Any, list[Any]]], int]:
        """Partition and group map output; returns per-reducer groups.

        Byte sizes were estimated once per pair by the map tasks, so the
        shuffle only sums them instead of re-walking every key/value.
        """
        num_reducers = job.conf.num_reduce_tasks
        partitions: list[dict[Any, list[Any]]] = [
            defaultdict(list) for _ in range(num_reducers)
        ]
        shuffle_bytes = 0
        for task_output, task_sizes in zip(map_outputs, map_output_sizes):
            for (key, value), pair_bytes in zip(task_output, task_sizes):
                index = job.conf.partitioner(key, num_reducers)
                if not 0 <= index < num_reducers:
                    raise EngineError(
                        f"partitioner returned {index} outside "
                        f"[0, {num_reducers})"
                    )
                partitions[index][key].append(value)
                shuffle_bytes += pair_bytes
                counters.increment("shuffle", "records")
        counters.increment("shuffle", "bytes", shuffle_bytes)
        cost.network_bytes += shuffle_bytes
        return partitions, shuffle_bytes

    def _reduce_phase(
        self,
        job: MapReduceJob,
        partitions: list[dict[Any, list[Any]]],
        counters: CounterGroup,
        cost: CostCounters,
    ) -> tuple[list[Pair], list[int]]:
        """Sort (optionally) and reduce each partition.

        Reduce tasks (one per partition) run on the engine's executor;
        outputs are concatenated and counters merged in partition order,
        exactly as the serial loop would.
        """
        task_results = self.executor.map(
            lambda partition: self._run_reduce_task(job, partition), partitions
        )
        output: list[Pair] = []
        task_records: list[int] = []
        for task_output, task_counters, task_cost, records in task_results:
            counters.merge(task_counters)
            cost.merge(task_cost)
            output.extend(task_output)
            task_records.append(records)
        return output, task_records

    def _run_reduce_task(
        self, job: MapReduceJob, partition: dict[Any, list[Any]]
    ) -> tuple[list[Pair], CounterGroup, CostCounters, int]:
        """One reduce task over one partition, with task-local accounting."""
        counters = CounterGroup()
        cost = CostCounters()
        output: list[Pair] = []
        keys = list(partition)
        if job.conf.sort_keys:
            keys.sort(key=_sort_token)
        records = 0
        for key in keys:
            values = partition[key]
            if job.conf.sort_values:
                values = sorted(values, key=_sort_token)
            counters.increment("reduce", "input_groups")
            counters.increment("reduce", "input_records", len(values))
            records += len(values)
            for out_pair in job.reducer(key, values):
                if not isinstance(out_pair, tuple) or len(out_pair) != 2:
                    raise EngineError(
                        f"reducer of job {job.name!r} must yield "
                        f"(key, value) pairs, got {out_pair!r}"
                    )
                output.append(out_pair)
                counters.increment("reduce", "output_records")
                cost.records_written += 1
                cost.bytes_written += _estimate_bytes(out_pair)
                cost.compute_ops += 1
        return output, counters, cost, records


class _CombineAccumulator:
    """Per-partition batch accumulation for the combiner.

    Map output is buffered by shuffle partition; when a partition's
    buffer reaches ``batch_records`` pairs the combiner runs over just
    that buffer (a *flush*), bounding combiner working memory to one
    batch per partition instead of the whole task output.  Within each
    partition the first-appearance order of keys is preserved, so for
    algebraic combiners the job output is identical to the historical
    combine-once-at-task-end path.

    Flush sizes are observable: ``combine::flushes`` and
    ``combine::flushed_records`` count them, ``combine::
    max_flush_records`` keeps the high-water mark (max-merged across
    tasks), and each flush bumps ``CostCounters.batches``.
    """

    def __init__(
        self,
        engine: MapReduceEngine,
        job: MapReduceJob,
        batch_records: int,
        counters: CounterGroup,
        cost: CostCounters,
    ) -> None:
        self.engine = engine
        self.job = job
        self.batch_records = batch_records
        self.counters = counters
        self.cost = cost
        self.num_partitions = job.conf.num_reduce_tasks
        self._buffers: list[list[Pair]] = [
            [] for _ in range(self.num_partitions)
        ]
        self._combined: list[Pair] = []

    def add(self, pair: Pair) -> None:
        index = self.job.conf.partitioner(pair[0], self.num_partitions)
        if not 0 <= index < self.num_partitions:
            raise EngineError(
                f"partitioner returned {index} outside "
                f"[0, {self.num_partitions})"
            )
        buffer = self._buffers[index]
        buffer.append(pair)
        if len(buffer) >= self.batch_records:
            self._flush(index)

    def finish(self) -> list[Pair]:
        """Flush the partial buffers and return the combined task output."""
        for index in range(self.num_partitions):
            if self._buffers[index]:
                self._flush(index)
        return self._combined

    def _flush(self, index: int) -> None:
        buffer = self._buffers[index]
        self._buffers[index] = []
        self.counters.increment("combine", "flushes")
        self.counters.increment("combine", "flushed_records", len(buffer))
        self.counters.record_max(
            "combine", "max_flush_records", len(buffer)
        )
        self.cost.batches += 1
        self._combined.extend(
            self.engine._combine(self.job, buffer, self.counters, self.cost)
        )


def _sort_token(value: Any) -> tuple[int, Any]:
    """A total order over mixed-type keys: numbers first, then by text."""
    if isinstance(value, bool):
        return (1, str(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))
