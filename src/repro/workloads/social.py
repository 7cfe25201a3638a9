"""Social-network domain workloads: k-means and connected components.

BigDataBench's social-network domain (Table 2).  K-means clusters
feature vectors (the offline-analytics ML representative); connected
components runs label propagation over the social graph — both as
iterative MapReduce job chains.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from itertools import chain, repeat
from operator import itemgetter, pow as power, sub
from typing import Any

import numpy as np

from repro._util import sequential_sum
from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import (
    KMEANS_STOP,
    LABEL_PROPAGATION_STOP,
    IterativeOperationPattern,
)
from repro.datagen.base import DataSet, DataType
from repro.engines.base import CostCounters
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)

Point = tuple[float, ...]


#: The exponent of every squared difference.  An unbounded ``repeat``
#: keeps no state, so the mapper's threads can share it.
_SQUARE = repeat(2)


def _distance_squared(a: Point, b: Point) -> float:
    """``sum((x - y) ** 2 for x, y in zip(a, b))`` as Python 3.11 adds it,
    in fewer interpreter steps.

    The same ``** 2`` (``operator.pow`` makes the ``float_pow`` call the
    operator makes) and the same left-to-right additions from ``int`` 0
    (:func:`~repro._util.sequential_sum`: from 3.12 ``sum`` compensates),
    so every seeded centroid is bit for bit what the generator expression
    gave on 3.11, and :func:`_nearest_block` adds the same way.
    ``x * x``, ``math.dist`` or ``math.fsum`` would not be: a multiply
    need not round like ``pow``, and neither of the last two adds left to
    right (DESIGN.md §3.4).
    """
    return sequential_sum(map(power, map(sub, a, b), _SQUARE))


def _nearest(point: Point, centroids: list[Point]) -> int:
    """The index of the first centroid nearest ``point``, as
    ``min(range(len(centroids)), key=…)`` picks it, ties and NaN included."""
    distances = [_distance_squared(point, centroid) for centroid in centroids]
    return distances.index(min(distances))


def _float_columns(
    vectors: Sequence[Point], dimensions: int
) -> np.ndarray | None:
    """``vectors`` as ``dimensions`` columns of float64, or ``None`` unless
    there is a vector, every vector holds exactly ``dimensions`` values,
    at least one, and every value is a ``float``."""
    if dimensions < 1 or set(map(len, vectors)) != {dimensions}:
        return None
    coordinates = list(chain.from_iterable(vectors))
    if set(map(type, coordinates)) != {float}:
        return None
    return np.array(coordinates).reshape(len(vectors), dimensions).T.copy()


def _block_distances(columns: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``_distance_squared(point, centroid)`` for every centroid (row) and
    point (column), with the points and the centroids given as columns
    (:func:`_float_columns`); bit for bit where it is finite.

    The same subtraction; the square by ``np.float_power(d, 2.0)``, which
    calls libm ``pow`` as ``float ** 2`` does (``np.square`` and ``d * d``
    round differently); the terms added dimension by dimension, left to
    right.  Where ``** 2`` raises ``OverflowError`` this reads ``inf`` or
    NaN, never a finite value.
    """
    with np.errstate(all="ignore"):
        squares = np.float_power(
            columns[np.newaxis, :, :] - means.T[:, :, np.newaxis], 2.0
        )
        distances = squares[:, 0, :].copy()
        for dimension in range(1, len(columns)):
            distances += squares[:, dimension, :]
    return distances


def _nearest_block(points: Sequence[Point], centroids: list[Point]) -> list[int]:
    """``[_nearest(point, centroids) for point in points]`` in one numpy
    pass, bit for bit.

    :func:`_block_distances`, then the centroids in order, each
    displacing the best so far only where it is strictly nearer, so the
    first minimum wins, as ``distances.index(min(distances))`` picks it.
    Float coordinates of one dimension take this path (``_extract_points``
    makes only those); any other input, and a block with a non-finite
    distance (where ``** 2`` raises ``OverflowError`` and ``min`` keeps a
    NaN), goes through :func:`_nearest` point by point.
    """
    dimensions = len(centroids[0]) if centroids else 0
    columns = _float_columns(points, dimensions)
    means = _float_columns(centroids, dimensions)
    if columns is not None and means is not None:
        distances = _block_distances(columns, means)
        if np.isfinite(distances).all():
            best = distances[0]
            nearest = np.zeros(len(points), dtype=np.intp)
            for index in range(1, len(centroids)):
                nearer = distances[index] < best
                nearest[nearer] = index
                np.minimum(best, distances[index], out=best)
            return nearest.tolist()
    return [_nearest(point, centroids) for point in points]


def _group_by_cluster(
    points: Sequence[Point], clusters: list[int]
) -> dict[int, list[Point]]:
    """``{cluster: [point, ...]}``, clusters in first-emission order: what
    grouping ``assign_map``'s pairs gives.  ``map`` appends each point to
    its cluster's list in C, with no Python loop per point."""
    groups: dict[int, list[Point]] = {
        cluster: [] for cluster in dict.fromkeys(clusters)
    }
    deque(map(list.append, map(groups.__getitem__, clusters), points), maxlen=0)
    return groups


class KMeansWorkload(Workload):
    """Lloyd's k-means as an iterative MapReduce chain.

    Map: assign each point to its nearest centroid.  Reduce: recompute
    centroids.  Stops when total centroid movement falls below
    ``tolerance`` or after ``max_iterations``.
    """

    name = "kmeans"
    domain = ApplicationDomain.SOCIAL_NETWORK
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TABLE
    abstract_operations = tuple(operations("cluster"))
    pattern = IterativeOperationPattern(operations("cluster"), KMEANS_STOP)

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        num_clusters: int = 4,
        tolerance: float | None = None,
        max_iterations: int | None = None,
        **params: Any,
    ) -> WorkloadResult:
        rule = self.pattern.stopping_condition
        if tolerance is None:
            tolerance = rule.tolerance
        if max_iterations is None:
            max_iterations = rule.max_iterations
        points = self._extract_points(dataset)
        if len(points) < num_clusters:
            raise ExecutionError(
                f"k-means needs at least {num_clusters} points, got {len(points)}"
            )
        # Deterministic initialisation: evenly strided points.
        stride = len(points) // num_clusters
        centroids: list[Point] = [points[i * stride] for i in range(num_clusters)]
        total_cost = CostCounters()
        simulated = wall = 0.0
        iterations = 0
        movement = float("inf")

        while iterations < max_iterations and movement > tolerance:
            frozen = list(centroids)

            def assign_map(point_id: int, point: Point):
                yield _nearest(point, frozen), point

            def assign_split(split: Sequence[tuple[int, Point]]):
                split_points = list(map(itemgetter(1), split))
                return _group_by_cluster(
                    split_points, _nearest_block(split_points, frozen)
                )

            def centroid_reduce(cluster: int, members: list[Point]):
                dimensions = len(members[0])
                mean = tuple(
                    sequential_sum(map(itemgetter(d), members)) / len(members)
                    for d in range(dimensions)
                )
                yield cluster, mean

            job = MapReduceJob(
                f"kmeans-iter-{iterations}",
                assign_map,
                centroid_reduce,
                conf=JobConf(sort_keys=False),
                group_split=assign_split,
            )
            result = engine.run(job, list(enumerate(points)))
            updated = dict(result.output)
            movement = 0.0
            for index in range(num_clusters):
                if index in updated:
                    movement += math.sqrt(
                        _distance_squared(centroids[index], updated[index])
                    )
                    centroids[index] = updated[index]
            total_cost.merge(result.cost)
            simulated += result.simulated_seconds
            wall += result.wall_seconds
            iterations += 1

        assignments = _nearest_block(points, centroids)
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output={"centroids": centroids, "assignments": assignments},
            records_in=len(points),
            records_out=num_clusters,
            duration_seconds=wall,
            cost=total_cost,
            simulated_seconds=simulated,
            extra={"iterations": iterations, "movement": movement},
        )

    @staticmethod
    def _extract_points(dataset: DataSet) -> list[Point]:
        """Numeric feature columns of a table (ignores a trailing label)."""
        schema = dataset.metadata.get("schema", ())
        has_label = bool(schema) and schema[-1] == "true_component"
        points = []
        for row in dataset.records:
            values = row[:-1] if has_label else row
            points.append(
                tuple(float(v) for v in values if isinstance(v, (int, float)))
            )
        return points


class ConnectedComponentsWorkload(Workload):
    """Label propagation: every vertex adopts its neighbourhood minimum.

    Iterates MapReduce rounds until no label changes — the paper's
    iterative pattern with a pure convergence stopping condition (zero
    tolerance).
    """

    name = "connected-components"
    domain = ApplicationDomain.SOCIAL_NETWORK
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.GRAPH
    abstract_operations = tuple(operations("cluster"))
    pattern = IterativeOperationPattern(
        operations("cluster"), LABEL_PROPAGATION_STOP
    )

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        max_iterations: int | None = None,
        **params: Any,
    ) -> WorkloadResult:
        if max_iterations is None:
            max_iterations = self.pattern.stopping_condition.max_iterations
        adjacency: dict[int, set[int]] = {}
        for src, dst in dataset.records:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set()).add(src)
        labels = {vertex: vertex for vertex in adjacency}
        total_cost = CostCounters()
        simulated = wall = 0.0
        iterations = 0
        changed = True

        while changed and iterations < max_iterations:
            current = dict(labels)

            def propagate_map(vertex: int, label: int):
                yield vertex, label
                for neighbour in adjacency.get(vertex, ()):
                    yield neighbour, label

            def min_reduce(vertex: int, candidate_labels: list[int]):
                yield vertex, min(candidate_labels)

            job = MapReduceJob(
                f"cc-iter-{iterations}",
                propagate_map,
                min_reduce,
                conf=JobConf(sort_keys=False),
            )
            result = engine.run(job, list(current.items()))
            labels = dict(result.output)
            changed = labels != current
            total_cost.merge(result.cost)
            simulated += result.simulated_seconds
            wall += result.wall_seconds
            iterations += 1

        components: dict[int, list[int]] = {}
        for vertex, label in labels.items():
            components.setdefault(label, []).append(vertex)
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=labels,
            records_in=len(dataset.records),
            records_out=len(components),
            duration_seconds=wall,
            cost=total_cost,
            simulated_seconds=simulated,
            extra={"iterations": iterations, "num_components": len(components)},
        )
