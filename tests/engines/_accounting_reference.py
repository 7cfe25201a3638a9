"""Test-only oracles: the per-record book-keeping as it stood before it was
hoisted out of the engines' inner loops.

The bodies are kept verbatim from ``engines/mapreduce/job.py``
(``default_partitioner``), ``engines/nosql/store.py`` (``_partition_of``),
``engines/mapreduce/runtime.py`` (``_estimate_bytes``) and
``datagen/base.py`` (``_record_size``), so the fast paths in ``src/`` can be
held to equal values on every input, not to a tolerance: partition
assignments, byte counters and ``detail["bytes"]`` are part of what a
seeded run reports.  Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import sys
from typing import Any


def reference_default_partitioner(key: Any, num_partitions: int) -> int:
    """Hash partitioning, Hadoop's default (x31, one ``ord()`` at a time)."""
    digest = 0
    for char in str(key):
        digest = (digest * 31 + ord(char)) & 0x7FFFFFFF
    return digest % num_partitions


def reference_partition_of(key: Any, num_partitions: int) -> int:
    """The NoSQL store's home partition of a key (x131)."""
    digest = 0
    for char in str(key):
        digest = (digest * 131 + ord(char)) & 0x7FFFFFFF
    return digest % num_partitions


def reference_estimate_bytes(pair: tuple[Any, Any]) -> int:
    key, value = pair
    return len(str(key)) + len(str(value))


def reference_record_size(record: Any) -> int:
    """Estimate the serialized size of one record in bytes."""
    if isinstance(record, str):
        return len(record)
    if isinstance(record, bytes):
        return len(record)
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, dict):
        return sum(
            reference_record_size(key) + reference_record_size(value)
            for key, value in record.items()
        )
    if isinstance(record, (tuple, list)):
        return sum(reference_record_size(item) for item in record)
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(record, numpy.ndarray):
        return int(record.nbytes)
    return len(str(record))
