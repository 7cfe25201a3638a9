"""Micro benchmarks: Sort, WordCount, Grep, TeraSort.

The paper's canonical micro workloads ("typical MapReduce operations such
as sort and WordCount", Table 2).  All are MapReduce-native, as in
HiBench and GridMix; TeraSort additionally demonstrates the sampling
range partitioner that makes multi-reducer output globally ordered.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any

from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern, SingleOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.datagen.source import DatasetSource
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.engines.mapreduce.runtime import JobResult
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


def _text_pairs(
    dataset: DataSet | DatasetSource,
) -> Iterable[tuple[int, str]]:
    """Documents as (line_number, line) pairs, the MR text input format.

    A materialized data set yields the historical list; a streaming
    source yields a lazy enumeration so the pairs are never all in
    memory at once (the MapReduce runtime cuts splits as they arrive).
    """
    if isinstance(dataset, DataSet):
        return list(enumerate(dataset.records))
    return enumerate(iter(dataset))


def _result_from_jobs(
    workload: str, engine: MapReduceEngine, jobs: list[JobResult], records_in: int
) -> WorkloadResult:
    """Collapse one or more job results into a WorkloadResult."""
    last = jobs[-1]
    total_cost = jobs[0].cost
    for job in jobs[1:]:
        total_cost.merge(job.cost)
    return WorkloadResult(
        workload=workload,
        engine=engine.name,
        output=last.output,
        records_in=records_in,
        records_out=len(last.output),
        duration_seconds=sum(job.wall_seconds for job in jobs),
        cost=total_cost,
        simulated_seconds=sum(job.simulated_seconds for job in jobs),
        extra={"jobs": [job.job_name for job in jobs]},
    )


class SortWorkload(Workload):
    """Total-order sort of text lines (single reducer, like ``sort``)."""

    name = "sort"
    domain = ApplicationDomain.MICRO
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TEXT
    abstract_operations = tuple(operations("sort"))
    pattern = SingleOperationPattern(operations("sort")[0])

    def run_mapreduce(
        self, engine: MapReduceEngine, dataset: DataSet, **params: Any
    ) -> WorkloadResult:
        def sort_map(key: Any, value: str):
            yield value, 1

        def sort_reduce(key: str, values: list[int]):
            for _ in values:
                yield key, None

        job = MapReduceJob(
            "sort",
            sort_map,
            sort_reduce,
            conf=JobConf(num_reduce_tasks=1, sort_keys=True),
        )
        result = engine.run(job, _text_pairs(dataset))
        return _result_from_jobs(self.name, engine, [result], dataset.num_records)


class TeraSortWorkload(Workload):
    """Sampling range-partitioned sort: globally ordered multi-reducer output.

    The TeraSort trick: sample the input to pick reducer boundary keys,
    then range-partition so concatenating reducer outputs in partition
    order yields a total order — sort at scale without a single reducer.
    """

    name = "terasort"
    domain = ApplicationDomain.MICRO
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TEXT
    abstract_operations = tuple(operations("sample", "sort"))
    pattern = MultiOperationPattern(operations("sample", "sort"))

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        num_reducers: int = 4,
        sample_size: int = 64,
        **params: Any,
    ) -> WorkloadResult:
        pairs = _text_pairs(dataset)
        # Sample boundary keys (every k-th record of an evenly spaced probe).
        stride = max(1, len(pairs) // sample_size)
        sample = sorted(value for _, value in pairs[::stride])
        boundaries = [
            sample[(index + 1) * len(sample) // num_reducers]
            for index in range(num_reducers - 1)
        ] if sample else []

        def range_partitioner(key: str, num_partitions: int) -> int:
            for index, boundary in enumerate(boundaries):
                if key < boundary:
                    return index
            return num_partitions - 1

        def sort_map(key: Any, value: str):
            yield value, 1

        def sort_reduce(key: str, values: list[int]):
            for _ in values:
                yield key, None

        job = MapReduceJob(
            "terasort",
            sort_map,
            sort_reduce,
            conf=JobConf(
                num_reduce_tasks=num_reducers,
                partitioner=range_partitioner,
                sort_keys=True,
            ),
        )
        result = engine.run(job, pairs)
        return _result_from_jobs(self.name, engine, [result], dataset.num_records)


#: Lines per ``Counter`` update in :func:`_count_words`: joining a whole
#: split of 1 250 lines kept all of its words alive at once (4.4 against
#: 0.5 MB at peak) and was slower (7.0 against 6.1 ms).
_COUNT_LINES = 64


def _count_words(split: Sequence[tuple[Any, str]]) -> dict[str, list[int]]:
    """Word count's batch door: ``wc_map``'s pairs over ``split``, grouped.

    ``str.split()`` cuts at any run of whitespace, so the words of lines
    joined by a space are the words of each line in turn, and a
    ``Counter`` keeps first-emission order.
    """
    counts: Counter[str] = Counter()
    for start in range(0, len(split), _COUNT_LINES):
        counts.update(
            " ".join([line for _, line in split[start : start + _COUNT_LINES]])
            .split()
        )
    return {word: [1] * count for word, count in counts.items()}


class WordCountWorkload(Workload):
    """Count word occurrences across all documents (with a combiner)."""

    name = "wordcount"
    domain = ApplicationDomain.MICRO
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TEXT
    #: Counting is split-invariant, so the input can stream through.
    streaming_input = True
    abstract_operations = tuple(operations("transform", "aggregate"))
    pattern = MultiOperationPattern(operations("transform", "aggregate"))

    def run_mapreduce(
        self, engine: MapReduceEngine, dataset: DataSet,
        use_combiner: bool = True,
        num_map_tasks: int = 4, num_reduce_tasks: int = 2,
        **params: Any,
    ) -> WorkloadResult:
        def wc_map(key: Any, value: str):
            for word in value.split():
                yield word, 1

        def wc_reduce(key: str, values: list[int]):
            yield key, sum(values)

        job = MapReduceJob(
            "wordcount",
            wc_map,
            wc_reduce,
            combiner=wc_reduce if use_combiner else None,
            conf=JobConf(
                num_map_tasks=num_map_tasks,
                num_reduce_tasks=num_reduce_tasks,
            ),
            group_split=_count_words,
        )
        result = engine.run(job, _text_pairs(dataset))
        return _result_from_jobs(self.name, engine, [result], dataset.num_records)


class GrepWorkload(Workload):
    """Select lines matching a regular expression (GridMix/BigDataBench grep)."""

    name = "grep"
    domain = ApplicationDomain.MICRO
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TEXT
    #: Line matching is record-local, so the input can stream through.
    streaming_input = True
    abstract_operations = tuple(operations("grep"))
    pattern = SingleOperationPattern(operations("grep")[0])

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        pattern_text: str = "data",
        **params: Any,
    ) -> WorkloadResult:
        compiled = re.compile(pattern_text)

        def grep_map(key: Any, value: str):
            if compiled.search(value):
                yield key, value

        job = MapReduceJob("grep", grep_map, conf=JobConf(num_reduce_tasks=1))
        result = engine.run(job, _text_pairs(dataset))
        return _result_from_jobs(self.name, engine, [result], dataset.num_records)
