"""Graph data generation.

Social-network benchmarks (LinkBench, BigDataBench's graph workloads)
need synthetic graphs whose degree distribution matches a real seed graph.
This module provides:

* :class:`RmatGraphGenerator` — a recursive-matrix (R-MAT) sampler, the
  practical form of the stochastic Kronecker model BigDataBench uses; its
  ``fit`` learns the average degree and skew parameters from a seed graph
  by a small grid search minimising degree-distribution divergence;
* :class:`PreferentialAttachmentGenerator` — Barabási–Albert growth,
  fitted from the seed graph's average degree;
* :class:`ErdosRenyiGenerator` — a veracity-unaware uniform-random
  baseline used in the veracity ablation (E9 in DESIGN.md).

Volume for graph generators is the **number of vertices** (the paper's
example: "2^20 vertices" for social-graph workloads).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.base import (
    DataGenerator,
    DataSet,
    DataType,
    PurelySyntheticMixin,
)

Edge = tuple[int, int]


def degree_counts(edges: Iterable[Edge]) -> Counter[int]:
    """Vertex → degree over an undirected edge list."""
    degrees: Counter[int] = Counter()
    for src, dst in edges:
        degrees[src] += 1
        degrees[dst] += 1
    return degrees


def average_degree(edges: Sequence[Edge]) -> float:
    """Mean vertex degree of an undirected edge list."""
    degrees = degree_counts(edges)
    if not degrees:
        return 0.0
    return 2.0 * len(edges) / len(degrees)


def log_binned_degree_distribution(
    edges: Iterable[Edge], num_bins: int = 12
) -> np.ndarray:
    """Degree distribution aggregated into logarithmic bins.

    Log-binning makes heavy-tailed distributions comparable across graph
    sizes; the veracity metrics compare these vectors.
    """
    degrees = list(degree_counts(edges).values())
    if not degrees:
        return np.zeros(num_bins)
    max_degree = max(degrees)
    edges_of_bins = np.logspace(0, math.log10(max_degree + 1), num_bins + 1)
    histogram, _ = np.histogram(degrees, bins=edges_of_bins)
    total = histogram.sum()
    if total == 0:
        return np.zeros(num_bins)
    return histogram / total


class RmatGraphGenerator(DataGenerator):
    """R-MAT / stochastic-Kronecker edge sampler.

    Each edge picks a quadrant of the adjacency matrix recursively with
    probabilities ``(a, b, c, d)``; high ``a`` concentrates edges among
    low-id vertices, producing the heavy-tailed degree distributions of
    real social graphs.
    """

    data_type = DataType.GRAPH
    veracity_aware = True

    #: (a, d) candidates explored by ``fit``; b = c = (1 - a - d) / 2.
    FIT_CANDIDATES: tuple[tuple[float, float], ...] = (
        (0.45, 0.15), (0.55, 0.10), (0.65, 0.08), (0.75, 0.05), (0.85, 0.03),
    )

    def __init__(
        self,
        a: float = 0.57,
        b: float = 0.19,
        c: float = 0.19,
        edges_per_vertex: float = 4.0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.set_parameters(a, b, c)
        if edges_per_vertex <= 0:
            raise GenerationError(
                f"edges_per_vertex must be positive, got {edges_per_vertex}"
            )
        self.edges_per_vertex = edges_per_vertex
        # Parameters have defaults, so the generator is usable unfitted.
        self._fitted = True

    def set_parameters(self, a: float, b: float, c: float) -> None:
        d = 1.0 - a - b - c
        if min(a, b, c, d) < 0 or a <= 0:
            raise GenerationError(
                f"invalid R-MAT parameters a={a}, b={b}, c={c} (d={d:.3f})"
            )
        self.a, self.b, self.c, self.d = a, b, c, d

    def fit(self, real_data: DataSet) -> "RmatGraphGenerator":
        """Learn average degree and skew parameters from a seed graph."""
        from repro.datagen.veracity import jensen_shannon_divergence

        edges = list(real_data.records)
        if not edges:
            raise GenerationError("cannot fit a graph generator on an empty graph")
        self.edges_per_vertex = max(average_degree(edges) / 2.0, 0.5)
        num_vertices = len(degree_counts(edges))
        sample_vertices = min(max(num_vertices, 64), 512)
        target = log_binned_degree_distribution(edges)
        best: tuple[float, tuple[float, float]] | None = None
        for a, d in self.FIT_CANDIDATES:
            b = c = (1.0 - a - d) / 2.0
            trial = RmatGraphGenerator(
                a=a, b=b, c=c,
                edges_per_vertex=self.edges_per_vertex, seed=self.seed,
            )
            sample = trial.generate(sample_vertices)
            candidate = log_binned_degree_distribution(sample.records)
            divergence = jensen_shannon_divergence(target, candidate)
            if best is None or divergence < best[0]:
                best = (divergence, (a, d))
        assert best is not None
        a, d = best[1]
        b = c = (1.0 - a - d) / 2.0
        self.set_parameters(a, b, c)
        self._fitted = True
        return self

    def fitted_state(self) -> dict[str, Any]:
        return {
            "a": self.a, "b": self.b, "c": self.c,
            "edges_per_vertex": self.edges_per_vertex,
        }

    def restore_fitted(self, state: dict[str, Any]) -> None:
        self.set_parameters(state["a"], state["b"], state["c"])
        self.edges_per_vertex = state["edges_per_vertex"]
        self._fitted = True

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[Edge]:
        if volume == 0:
            return []
        levels = max(1, math.ceil(math.log2(volume)))
        total_edges = int(round(self.edges_per_vertex * volume))
        count = self.partition_volume(total_edges, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        probabilities = np.array([self.a, self.b, self.c, self.d])
        probabilities = probabilities / probabilities.sum()
        quadrants = rng.choice(4, size=(count, levels), p=probabilities)
        # Level j's quadrant gives bit levels-1-j of each endpoint: its row
        # bit to the source, its column bit to the destination.
        shifts = np.arange(levels - 1, -1, -1, dtype=np.int64)
        sources = ((quadrants >> 1) << shifts).sum(axis=1)
        targets = ((quadrants & 1) << shifts).sum(axis=1)
        return list(zip(sources.tolist(), targets.tolist()))


class PreferentialAttachmentGenerator(DataGenerator):
    """Barabási–Albert growth: new vertices attach to high-degree vertices."""

    data_type = DataType.GRAPH
    veracity_aware = True

    def __init__(self, edges_per_vertex: int = 3, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if edges_per_vertex <= 0:
            raise GenerationError(
                f"edges_per_vertex must be positive, got {edges_per_vertex}"
            )
        self.edges_per_vertex = edges_per_vertex
        self._fitted = True  # usable with the default attachment count

    def fit(self, real_data: DataSet) -> "PreferentialAttachmentGenerator":
        edges = list(real_data.records)
        if not edges:
            raise GenerationError("cannot fit a graph generator on an empty graph")
        self.edges_per_vertex = max(1, round(average_degree(edges) / 2.0))
        self._fitted = True
        return self

    def fitted_state(self) -> dict[str, Any]:
        return {"edges_per_vertex": self.edges_per_vertex}

    def restore_fitted(self, state: dict[str, Any]) -> None:
        self.edges_per_vertex = state["edges_per_vertex"]
        self._fitted = True

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[Edge]:
        """Generate one partition of a preferential-attachment graph.

        Growth is inherently sequential, so partitions are produced by
        growing the full graph deterministically and slicing its edges;
        this keeps the parallel API while preserving the growth process.
        """
        full = self._grow(volume)
        base, extra = divmod(len(full), num_partitions)
        start = partition * base + min(partition, extra)
        size = base + (1 if partition < extra else 0)
        return full[start : start + size]

    def _grow(self, volume: int) -> list[Edge]:
        if volume <= 1:
            return []
        rng = np.random.default_rng(self.seed)
        clique = min(self.edges_per_vertex + 1, volume)
        edges: list[Edge] = []
        attachment: list[int] = []
        for u in range(clique):
            for v in range(u + 1, clique):
                edges.append((u, v))
                attachment.extend((u, v))
        for new_vertex in range(clique, volume):
            targets: set[int] = set()
            limit = min(self.edges_per_vertex, new_vertex)
            while len(targets) < limit:
                targets.add(attachment[int(rng.integers(len(attachment)))])
            for target in sorted(targets):
                edges.append((new_vertex, target))
                attachment.extend((new_vertex, target))
        return edges


class ErdosRenyiGenerator(PurelySyntheticMixin, DataGenerator):
    """Uniform random graph G(n, m): the veracity-unaware baseline."""

    data_type = DataType.GRAPH

    def __init__(self, edges_per_vertex: float = 4.0, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if edges_per_vertex <= 0:
            raise GenerationError(
                f"edges_per_vertex must be positive, got {edges_per_vertex}"
            )
        self.edges_per_vertex = edges_per_vertex

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[Edge]:
        if volume == 0:
            return []
        total_edges = int(round(self.edges_per_vertex * volume))
        count = self.partition_volume(total_edges, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        sources = rng.integers(0, volume, size=count)
        targets = rng.integers(0, volume, size=count)
        return [(int(s), int(t)) for s, t in zip(sources, targets)]
