"""Test-only oracle: the per-element generator loops as they stood before
the table, text, graph and mixture generators built records from whole
arrays.

Each function reproduces one method body verbatim (``self`` is the
generator or column distribution under comparison), so the bulk paths
in ``src/`` can be held to equal records of equal element types.  The
chunking loops of ``DataGenerator.iter_batches`` and ``_util.batched``
are kept the same way.  Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

from repro.datagen.base import RecordBatch
from repro.datagen.graph import RmatGraphGenerator
from repro.datagen.mixture import GaussianMixtureGenerator
from repro.datagen.table import (
    Categorical,
    ColumnDistribution,
    FittedTableGenerator,
    ForeignKey,
    Gaussian,
    TableGenerator,
    TextColumn,
    UniformFloat,
    UniformInt,
    Zipf,
    _EmpiricalQuantile,
)
from repro.datagen.text import _DOCUMENTS_PER_DRAW, RandomTextGenerator

# -- table columns -------------------------------------------------------------


def _uniform_int(self: UniformInt, rng, count, start_row):
    return [int(v) for v in rng.integers(self.low, self.high, size=count)]


def _uniform_float(self: UniformFloat, rng, count, start_row):
    return [float(v) for v in rng.uniform(self.low, self.high, size=count)]


def _gaussian(self: Gaussian, rng, count, start_row):
    return [float(v) for v in rng.normal(self.mean, self.std, size=count)]


def _zipf(self: Zipf, rng, count, start_row):
    raw = rng.zipf(self.exponent, size=count)
    return [int(min(v - 1, self.size - 1)) for v in raw]


def _categorical(self: Categorical, rng, count, start_row):
    if self.weights is None:
        indexes = rng.integers(len(self.values), size=count)
    else:
        probabilities = np.asarray(self.weights, dtype=np.float64)
        probabilities = probabilities / probabilities.sum()
        indexes = rng.choice(len(self.values), size=count, p=probabilities)
    return [self.values[int(i)] for i in indexes]


def _foreign_key(self: ForeignKey, rng, count, start_row):
    if self.skew > 1.0:
        raw = rng.zipf(self.skew, size=count)
        return [int(min(v - 1, self.ref_size - 1)) for v in raw]
    return [int(v) for v in rng.integers(0, self.ref_size, size=count)]


def _text_column(self: TextColumn, rng, count, start_row):
    indexes = rng.integers(self.cardinality, size=count)
    return [f"{self.prefix}_{int(i)}" for i in indexes]


def _empirical_quantile(self: _EmpiricalQuantile, rng, count, start_row):
    quantiles = rng.uniform(0.0, 1.0, size=count)
    sampled = np.quantile(self._sorted, quantiles, method="linear")
    if self._integral:
        return [int(round(float(v))) for v in sampled]
    return [float(v) for v in sampled]


_SAMPLERS = {
    UniformInt: _uniform_int,
    UniformFloat: _uniform_float,
    Gaussian: _gaussian,
    Zipf: _zipf,
    Categorical: _categorical,
    ForeignKey: _foreign_key,
    TextColumn: _text_column,
    _EmpiricalQuantile: _empirical_quantile,
}


def reference_sample(
    distribution: ColumnDistribution, rng, count: int, start_row: int
) -> list[Any]:
    """The column's old ``sample``; columns that did not change use their own."""
    sampler = _SAMPLERS.get(type(distribution), type(distribution).sample)
    return sampler(distribution, rng, count, start_row)


def _table_partition(self: TableGenerator, volume, partition, num_partitions):
    count = self.partition_volume(volume, partition, num_partitions)
    start_row = sum(
        self.partition_volume(volume, p, num_partitions) for p in range(partition)
    )
    rng = self.rng_for_partition(partition, num_partitions)
    column_values = [
        reference_sample(distribution, rng, count, start_row)
        for distribution in self.schema.columns.values()
    ]
    return [tuple(values) for values in zip(*column_values)] if count else []


def _fitted_table_partition(
    self: FittedTableGenerator, volume, partition, num_partitions
):
    self._require_fitted()
    count = self.partition_volume(volume, partition, num_partitions)
    rng = self.rng_for_partition(partition, num_partitions)
    column_values = [
        reference_sample(distribution, rng, count, 0)
        for distribution in self._columns
    ]
    return [tuple(values) for values in zip(*column_values)] if count else []


# -- text, graph, mixture --------------------------------------------------------


def _random_text_partition(
    self: RandomTextGenerator, volume, partition, num_partitions
):
    count = self.partition_volume(volume, partition, num_partitions)
    rng = self.rng_for_partition(partition, num_partitions)
    words = self.words
    documents = []
    for start in range(0, count, _DOCUMENTS_PER_DRAW):
        block = rng.integers(
            len(words),
            size=(min(_DOCUMENTS_PER_DRAW, count - start), self.document_length),
        )
        for indexes in block.tolist():
            documents.append(" ".join([words[index] for index in indexes]))
    return documents


def _rmat_partition(self: RmatGraphGenerator, volume, partition, num_partitions):
    if volume == 0:
        return []
    levels = max(1, math.ceil(math.log2(volume)))
    size = 2**levels
    total_edges = int(round(self.edges_per_vertex * volume))
    count = self.partition_volume(total_edges, partition, num_partitions)
    rng = self.rng_for_partition(partition, num_partitions)
    probabilities = np.array([self.a, self.b, self.c, self.d])
    probabilities = probabilities / probabilities.sum()
    edges = []
    quadrants = rng.choice(4, size=(count, levels), p=probabilities)
    for row in quadrants:
        src = dst = 0
        for quadrant in row:
            src = (src << 1) | (int(quadrant) >> 1)
            dst = (dst << 1) | (int(quadrant) & 1)
        edges.append((src % size, dst % size))
    return edges


def _mixture_partition(
    self: GaussianMixtureGenerator, volume, partition, num_partitions
):
    count = self.partition_volume(volume, partition, num_partitions)
    if count == 0:
        return []
    rng = self.rng_for_partition(partition, num_partitions)
    components = rng.integers(0, self.num_components, size=count)
    noise = rng.normal(0.0, self.cluster_std, size=(count, self.dimensions))
    points = self.centres[components] + noise
    return [
        tuple(float(value) for value in points[index]) + (int(components[index]),)
        for index in range(count)
    ]


_PARTITIONS = {
    TableGenerator: _table_partition,
    FittedTableGenerator: _fitted_table_partition,
    RandomTextGenerator: _random_text_partition,
    RmatGraphGenerator: _rmat_partition,
    GaussianMixtureGenerator: _mixture_partition,
}


def reference_partition(generator, volume: int, partition: int, num_partitions: int):
    """The generator's old records for one partition."""
    return _PARTITIONS[type(generator)](generator, volume, partition, num_partitions)


def reference_records(generator, volume: int, num_partitions: int = 1) -> list:
    """``generate_parallel``'s records, partition by partition, the old way."""
    records = []
    for partition in range(num_partitions):
        records.extend(reference_partition(generator, volume, partition, num_partitions))
    return records


# -- chunking ----------------------------------------------------------------------


def reference_iter_batches(
    generator, volume: int, chunk_size: int, num_partitions: int = 1
) -> Iterator[RecordBatch]:
    """``DataGenerator.iter_batches``' loop: one append and one length
    check per record (argument checks and tracing left out)."""
    index = 0
    offset = 0
    buffer: list[Any] = []
    for partition in range(num_partitions):
        for record in generator.iter_partition(volume, partition, num_partitions):
            buffer.append(record)
            if len(buffer) == chunk_size:
                yield RecordBatch(
                    records=buffer, data_type=generator.data_type,
                    index=index, offset=offset,
                )
                offset += len(buffer)
                index += 1
                buffer = []
    if buffer:
        yield RecordBatch(
            records=buffer, data_type=generator.data_type,
            index=index, offset=offset,
        )


def reference_batched(iterable: Iterable, batch_size: int) -> Iterator[list]:
    """``_util.batched``' loop."""
    batch: list = []
    for item in iterable:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
