"""Test-only oracles: the per-record book-keeping as it stood before it was
hoisted out of the engines' inner loops.

The bodies are kept verbatim from ``engines/mapreduce/job.py``
(``default_partitioner``), ``engines/nosql/store.py`` (``_partition_of``),
``engines/mapreduce/runtime.py`` (``_estimate_bytes``),
``datagen/base.py`` (``_record_size``), ``datagen/stream.py``
(``StreamGenerator.generate_partition``, the loop that built one event at
a time) and ``engines/streaming/engine.py`` (``StreamingEngine.run``, one
event through every operator), so the fast paths in ``src/`` can be held
to equal values on every input, not to a tolerance: partition
assignments, byte counters, ``detail["bytes"]``, the generated events and
the window results are part of what a seeded run reports.  Nothing in
``src/`` may import this module.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from repro.datagen.stream import EventKind, StreamEvent, StreamGenerator


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


def reference_generate_partition(
    generator: StreamGenerator, volume: int, partition: int, num_partitions: int
) -> list[StreamEvent]:
    """One partition of a stream, one event at a time."""
    self = generator
    count = self.partition_volume(volume, partition, num_partitions)
    if count == 0:
        return []
    rng = self.rng_for_partition(partition, num_partitions)
    timestamps = self.arrivals.timestamps(rng, count)
    if self.key_skew > 1.0:
        keys = np.minimum(
            rng.zipf(self.key_skew, size=count) - 1, self.key_space - 1
        )
    else:
        keys = rng.integers(0, self.key_space, size=count)
    values = rng.normal(0.0, 1.0, size=count)
    kind_draws = rng.random(count)
    events: list[StreamEvent] = []
    for index in range(count):
        draw = kind_draws[index]
        if draw < self.update_fraction:
            kind = EventKind.UPDATE
        elif draw < self.update_fraction + self.delete_fraction:
            kind = EventKind.DELETE
        else:
            kind = EventKind.INSERT
        events.append(
            StreamEvent(
                timestamp=float(timestamps[index]),
                key=int(keys[index]),
                value=float(values[index]),
                kind=kind,
            )
        )
    return events


def reference_stream_run(
    topology: Any, events: Any, service_seconds: float
) -> tuple[list[Any], list[float], int]:
    """``StreamingEngine.run`` one event at a time through every operator.

    Returns ``(results, latencies, compute_ops)``.
    """
    ordered = sorted(events, key=lambda event: event.timestamp)
    operators = topology.operators
    latencies: list[float] = []
    departure = 0.0
    compute_ops = 0
    for event in ordered:
        start = max(event.timestamp, departure)
        departure = start + service_seconds
        latencies.append(departure - event.timestamp)
        current = [event]
        for operator in operators:
            compute_ops += len(current)
            next_events = []
            for item in current:
                next_events.extend(operator.process(item))
            current = next_events
    results = []
    for operator in operators:
        results.extend(operator.flush())
    return results, latencies, compute_ops
