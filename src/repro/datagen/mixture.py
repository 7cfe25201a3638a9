"""Gaussian-mixture feature tables (inputs for clustering workloads).

K-means-style offline-analytics workloads need numeric feature vectors
with latent cluster structure.  :class:`GaussianMixtureGenerator` draws
rows from a mixture of spherical Gaussians; the true component of each
row is recorded in the last column so tests can measure clustering
quality against ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.base import (
    DataGenerator,
    DataSet,
    DataType,
    PurelySyntheticMixin,
    mix_seed,
)


class GaussianMixtureGenerator(PurelySyntheticMixin, DataGenerator):
    """Rows of ``dimensions`` floats drawn from ``num_components`` Gaussians.

    Schema: ``(x0, .., x{d-1}, true_component)``.
    """

    data_type = DataType.TABLE

    def __init__(
        self,
        num_components: int = 4,
        dimensions: int = 2,
        spread: float = 8.0,
        cluster_std: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        if num_components <= 0:
            raise GenerationError(
                f"num_components must be positive, got {num_components}"
            )
        if dimensions <= 0:
            raise GenerationError(f"dimensions must be positive, got {dimensions}")
        if cluster_std <= 0:
            raise GenerationError(f"cluster_std must be positive, got {cluster_std}")
        self.num_components = num_components
        self.dimensions = dimensions
        self.spread = spread
        self.cluster_std = cluster_std
        # Component centres are a deterministic function of the seed, so
        # every partition places points around the same centres.
        centre_rng = np.random.default_rng(mix_seed(seed, 0xC3))
        self.centres = centre_rng.uniform(
            -spread, spread, size=(num_components, dimensions)
        )

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[tuple]:
        count = self.partition_volume(volume, partition, num_partitions)
        if count == 0:
            return []
        rng = self.rng_for_partition(partition, num_partitions)
        components = rng.integers(0, self.num_components, size=count)
        noise = rng.normal(0.0, self.cluster_std, size=(count, self.dimensions))
        points = self.centres[components] + noise
        return list(zip(*points.T.tolist(), components.tolist()))

    def _wrap(self, records: list, name: str | None) -> DataSet:
        dataset = super()._wrap(records, name)
        dataset.metadata["schema"] = tuple(
            f"x{i}" for i in range(self.dimensions)
        ) + ("true_component",)
        dataset.metadata["num_components"] = self.num_components
        return dataset
