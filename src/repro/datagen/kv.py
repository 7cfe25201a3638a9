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


#: Records whose field letters :class:`KeyValueGenerator` draws at once.
_RECORDS_PER_DRAW = 64


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
        count = self.partition_volume(volume, partition, num_partitions)
        start = sum(
            self.partition_volume(volume, p, num_partitions) for p in range(partition)
        )
        rng = self.rng_for_partition(partition, num_partitions)
        length = self.field_length
        fields = [
            (f"field{index}", slice(index * length, (index + 1) * length))
            for index in range(self.field_count)
        ]
        # One draw per block of records: the same stream as one draw per
        # field (pinned by tests/datagen/test_seeded_digests.py), so
        # chunked and materialized generation stay bit-identical, without
        # a numpy call per field; memory stays one block.
        for first in range(0, count, _RECORDS_PER_DRAW):
            letters = rng.integers(
                0,
                26,
                size=(
                    min(_RECORDS_PER_DRAW, count - first),
                    self.field_count * length,
                ),
            )
            rows = (letters + 97).astype(np.uint8)
            for offset, row in enumerate(rows, start + first):
                payload = row.tobytes().decode("ascii")
                yield (
                    f"{self.key_prefix}{offset:012d}",
                    {name: payload[part] for name, part in fields},
                )
