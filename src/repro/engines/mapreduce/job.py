"""MapReduce job definitions.

A job is a mapper, an optional combiner, and a reducer, plus a
configuration describing parallelism and partitioning — the same surface
as a Hadoop job, minus the JVM.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro._util import stable_hash, stable_hashes
from repro.core.errors import EngineError

#: A mapper takes (key, value) and yields zero or more (key, value) pairs.
Mapper = Callable[[Any, Any], Iterable[tuple[Any, Any]]]
#: A reducer takes (key, [values]) and yields zero or more (key, value) pairs.
Reducer = Callable[[Any, list[Any]], Iterable[tuple[Any, Any]]]
#: A partitioner maps (key, num_partitions) to a partition index.
Partitioner = Callable[[Any, int], int]
#: A mapper's batch door takes one split and returns its pairs grouped by key.
GroupSplit = Callable[[Sequence[tuple[Any, Any]]], dict[Any, list[Any]]]


def default_partitioner(key: Any, num_partitions: int) -> int:
    """Hash partitioning, Hadoop's default.

    Uses a stable string hash so results are reproducible across runs
    (Python's builtin ``hash`` is salted per process for strings).
    """
    return stable_hash(str(key), 31) % num_partitions


def identity_mapper(key: Any, value: Any) -> Iterable[tuple[Any, Any]]:
    """Pass input pairs through unchanged."""
    yield key, value


def identity_reducer(key: Any, values: list[Any]) -> Iterable[tuple[Any, Any]]:
    """Emit every grouped value unchanged."""
    for value in values:
        yield key, value


@dataclass
class JobConf:
    """Execution configuration of one MapReduce job."""

    num_map_tasks: int = 4
    num_reduce_tasks: int = 2
    partitioner: Partitioner = default_partitioner
    #: Sort keys within each reduce partition (Hadoop always sorts; this
    #: can be disabled for speed in workloads that only need grouping).
    sort_keys: bool = True
    #: Secondary sort on values within each key group.
    sort_values: bool = False
    #: Records per input split.  When set, input splits are cut lazily at
    #: this size as the input stream arrives (the HDFS-block analogue),
    #: so the runtime never materializes the input; ``num_map_tasks``
    #: then does not set the split count.  When ``None``, sized inputs
    #: are divided into ``num_map_tasks`` near-equal splits.
    split_records: int | None = None

    def __post_init__(self) -> None:
        if self.num_map_tasks <= 0:
            raise EngineError(
                f"num_map_tasks must be positive, got {self.num_map_tasks}"
            )
        if self.num_reduce_tasks <= 0:
            raise EngineError(
                f"num_reduce_tasks must be positive, got {self.num_reduce_tasks}"
            )
        if self.split_records is not None and self.split_records <= 0:
            raise EngineError(
                f"split_records must be positive, got {self.split_records}"
            )


#: Strings per ``stable_hashes`` product when a shuffle builds its route
#: table: at 1 024, 3 000 lines of 342 characters peaked at 4.9 MB (the
#: ``uint64`` matrix) against 0.7 MB at 128, and were no faster.
ROUTE_BLOCK = 128


def default_routes(texts: Iterable[str], num_partitions: int) -> dict[str, int]:
    """``{text: default_partitioner(text, num_partitions)}``, one entry per
    distinct text, hashed :data:`ROUTE_BLOCK` texts per product.

    The default partitioner is a pure function of ``str(key)``, so one
    shuffle hashes each string form once, however many pairs carry it.
    The table is keyed by the string form, never by the key: ``1``,
    ``1.0`` and ``True`` are one dict key but three placements.  With
    one partition every remainder is 0, so nothing is hashed.
    """
    if num_partitions == 1:
        return dict.fromkeys(texts, 0)
    distinct = list(dict.fromkeys(texts))
    routes: dict[str, int] = {}
    for start in range(0, len(distinct), ROUTE_BLOCK):
        block = distinct[start : start + ROUTE_BLOCK]
        routes.update(
            zip(block, [digest % num_partitions
                        for digest in stable_hashes(block, 31)])
        )
    return routes


@dataclass
class MapReduceJob:
    """A complete MapReduce job: functions plus configuration.

    ``group_split`` is the mapper's batch door (DESIGN.md §3.3): called
    with one input split, it returns what grouping the mapper's pairs
    over that split by key gives, keys in first-emission order, each
    with the list of its values.  A map task calls it in place of the
    per-pair loop, with or without a combiner.
    """

    name: str
    mapper: Mapper
    reducer: Reducer = identity_reducer
    combiner: Reducer | None = None
    conf: JobConf = field(default_factory=JobConf)
    group_split: GroupSplit | None = None
