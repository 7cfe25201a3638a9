"""Social-network domain workloads: k-means and connected components.

BigDataBench's social-network domain (Table 2).  K-means clusters
feature vectors (the offline-analytics ML representative); connected
components runs label propagation over the social graph — both as
iterative MapReduce job chains.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter, pow as power, sub
from typing import Any

from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import (
    ConvergenceCondition,
    FixedIterations,
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
    """``sum((x - y) ** 2 for x, y in zip(a, b))`` in fewer interpreter steps.

    The same ``** 2`` (``operator.pow`` makes the ``float_pow`` call the
    operator makes) and the same left-to-right ``sum`` from ``int`` 0, so
    every seeded centroid is bit for bit what the generator expression
    gave.  ``x * x``, ``math.dist``, ``math.fsum`` or numpy would not be:
    a multiply need not round like ``pow``, and neither of the last two
    adds left to right (DESIGN.md §3.4).
    """
    return sum(map(power, map(sub, a, b), _SQUARE))


def _nearest(point: Point, centroids: list[Point]) -> int:
    """The index of the first centroid nearest ``point``, as
    ``min(range(len(centroids)), key=…)`` picks it, ties and NaN included."""
    distances = [_distance_squared(point, centroid) for centroid in centroids]
    return distances.index(min(distances))


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
    pattern = IterativeOperationPattern(
        operations("cluster"), FixedIterations(10)
    )

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        num_clusters: int = 4,
        tolerance: float = 1e-3,
        max_iterations: int = 20,
        **params: Any,
    ) -> WorkloadResult:
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

            def centroid_reduce(cluster: int, members: list[Point]):
                dimensions = len(members[0])
                mean = tuple(
                    sum(map(itemgetter(d), members)) / len(members)
                    for d in range(dimensions)
                )
                yield cluster, mean

            job = MapReduceJob(
                f"kmeans-iter-{iterations}",
                assign_map,
                centroid_reduce,
                conf=JobConf(sort_keys=False),
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

        assignments = [_nearest(point, centroids) for point in points]
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
        operations("cluster"),
        ConvergenceCondition(tolerance=0.0, max_iterations=50),
    )

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        max_iterations: int = 50,
        **params: Any,
    ) -> WorkloadResult:
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
