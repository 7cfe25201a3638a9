"""Key-value record generation (the input of OLTP / cloud-serving tests).

YCSB-style workloads operate on rows of named fields addressed by string
keys.  :class:`KeyValueGenerator` produces such records purely
synthetically (the paper accepts purely synthetic data for basic database
operations, Section 3.2 step 1).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.base import DataGenerator, DataType, PurelySyntheticMixin


class KeyValueGenerator(PurelySyntheticMixin, DataGenerator):
    """Generates (key, fields) records with fixed-size string payloads."""

    data_type = DataType.KEY_VALUE

    def __init__(
        self,
        field_count: int = 10,
        field_length: int = 100,
        key_prefix: str = "user",
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        if field_count <= 0:
            raise GenerationError(f"field_count must be positive, got {field_count}")
        if field_length <= 0:
            raise GenerationError(
                f"field_length must be positive, got {field_length}"
            )
        self.field_count = field_count
        self.field_length = field_length
        self.key_prefix = key_prefix

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        # Streamed record-by-record: the RNG is consumed in the same
        # order as the materialized loop, so chunked and materialized
        # generation are bit-identical.
        count = self.partition_volume(volume, partition, num_partitions)
        start = sum(
            self.partition_volume(volume, p, num_partitions) for p in range(partition)
        )
        rng = self.rng_for_partition(partition, num_partitions)
        for offset in range(count):
            key = f"{self.key_prefix}{start + offset:012d}"
            fields = {}
            for field_index in range(self.field_count):
                letters = rng.integers(0, 26, size=self.field_length)
                fields[f"field{field_index}"] = (
                    (letters + 97).astype(np.uint8).tobytes().decode("ascii")
                )
            yield (key, fields)
