"""Sampling tools for scaling data sets *down*.

Figure 3 (step 2) includes "sampling tools [that] enable the scaling down
of data set sizes".  Scaling down is harder than it looks: a uniform row
sample preserves marginal distributions but a uniform edge sample destroys
graph structure, so graph-specific samplers are provided too.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import TypeVar

import numpy as np

from repro.core.errors import GenerationError

T = TypeVar("T")

Edge = tuple[int, int]


def reservoir_sample(
    items: Iterable[T], sample_size: int, seed: int = 0
) -> list[T]:
    """Uniform sample of ``sample_size`` items in one pass (Algorithm R).

    Works on arbitrary iterables without knowing their length — the right
    tool when the "real" data set is a stream too large to hold.
    """
    if sample_size < 0:
        raise GenerationError(f"sample_size must be non-negative, got {sample_size}")
    rng = np.random.default_rng(seed)
    reservoir: list[T] = []
    for index, item in enumerate(items):
        if index < sample_size:
            reservoir.append(item)
        else:
            slot = int(rng.integers(0, index + 1))
            if slot < sample_size:
                reservoir[slot] = item
    return reservoir


def random_edge_sample(
    edges: Sequence[Edge], fraction: float, seed: int = 0
) -> list[Edge]:
    """Keep a uniform fraction of edges (cheap, but thins the degree tail)."""
    if not 0.0 < fraction <= 1.0:
        raise GenerationError(f"fraction must be in (0, 1], got {fraction}")
    if not edges:
        return []
    rng = np.random.default_rng(seed)
    keep_count = max(1, int(round(len(edges) * fraction)))
    indexes = rng.choice(len(edges), size=keep_count, replace=False)
    return [edges[int(i)] for i in sorted(indexes)]


def forest_fire_sample(
    edges: Sequence[Edge],
    fraction: float,
    forward_probability: float = 0.7,
    seed: int = 0,
) -> list[Edge]:
    """Forest-fire sampling: burn outward from random seeds.

    Preserves community structure and degree skew better than uniform
    sampling (Leskovec & Faloutsos 2006), which is why it is the preferred
    scale-down tool for graph veracity.
    """
    if not 0.0 < fraction <= 1.0:
        raise GenerationError(f"fraction must be in (0, 1], got {fraction}")
    if not 0.0 < forward_probability < 1.0:
        raise GenerationError(
            f"forward_probability must be in (0, 1), got {forward_probability}"
        )
    adjacency: dict[int, list[int]] = defaultdict(list)
    for src, dst in edges:
        adjacency[src].append(dst)
        adjacency[dst].append(src)
    vertices = sorted(adjacency)
    if not vertices:
        return []
    target = max(1, int(round(len(vertices) * fraction)))
    rng = np.random.default_rng(seed)
    burned: set[int] = set()
    while len(burned) < target:
        start = vertices[int(rng.integers(len(vertices)))]
        frontier = [start]
        burned.add(start)
        while frontier and len(burned) < target:
            vertex = frontier.pop()
            neighbours = [n for n in adjacency[vertex] if n not in burned]
            if not neighbours:
                continue
            # Geometric number of neighbours to burn, mean p/(1-p).
            burn_count = int(
                rng.geometric(1.0 - forward_probability)
            )
            chosen = rng.choice(
                len(neighbours), size=min(burn_count, len(neighbours)), replace=False
            )
            for index in chosen:
                neighbour = neighbours[int(index)]
                burned.add(neighbour)
                frontier.append(neighbour)
    return [edge for edge in edges if edge[0] in burned and edge[1] in burned]
