"""MapReduce job definitions.

A job is a mapper, an optional combiner, and a reducer, plus a
configuration describing parallelism and partitioning — the same surface
as a Hadoop job, minus the JVM.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro._util import stable_hash
from repro.core.errors import EngineError

#: A mapper takes (key, value) and yields zero or more (key, value) pairs.
Mapper = Callable[[Any, Any], Iterable[tuple[Any, Any]]]
#: A reducer takes (key, [values]) and yields zero or more (key, value) pairs.
Reducer = Callable[[Any, list[Any]], Iterable[tuple[Any, Any]]]
#: A partitioner maps (key, num_partitions) to a partition index.
Partitioner = Callable[[Any, int], int]


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


def shuffle_partitioner(conf: JobConf) -> Partitioner:
    """The partitioner one shuffle routes with.

    A user-supplied partitioner is returned as it is and called once per
    pair.  The default one is a pure function of ``str(key)``, so it is
    replaced by a twin that remembers the hash of every string form it
    has seen: iterative jobs send thousands of pairs over a handful of
    keys.  The memo belongs to the returned callable and dies with the
    shuffle; it holds no more keys than the shuffle's own groups do.
    """
    if conf.partitioner is not default_partitioner:
        return conf.partitioner
    hashes: dict[str, int] = {}

    def partition(key: Any, num_partitions: int) -> int:
        text = str(key)
        digest = hashes.get(text)
        if digest is None:
            digest = hashes[text] = stable_hash(text, 31)
        return digest % num_partitions

    return partition


@dataclass
class MapReduceJob:
    """A complete MapReduce job: functions plus configuration."""

    name: str
    mapper: Mapper
    reducer: Reducer = identity_reducer
    combiner: Reducer | None = None
    conf: JobConf = field(default_factory=JobConf)
