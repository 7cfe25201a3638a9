"""Tests for search-engine and social-network workloads."""

from __future__ import annotations

import dataclasses
import math
from functools import reduce
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import chunked
from repro.datagen.base import DataType
from repro.datagen.graph import RmatGraphGenerator
from repro.datagen.mixture import GaussianMixtureGenerator
from repro.datagen.text import tokenize
from repro.engines.mapreduce import MapReduceEngine
from repro.workloads import social
from repro.workloads import (
    ConnectedComponentsWorkload,
    InvertedIndexWorkload,
    KMeansWorkload,
    PageRankWorkload,
)

from tests._datasets import as_dataset


class TestInvertedIndex:
    @pytest.fixture()
    def documents(self):
        return as_dataset(
            ["apple banana", "banana cherry", "apple apple"], DataType.TEXT
        )

    def test_postings_are_correct(self, documents):
        result = InvertedIndexWorkload().run(MapReduceEngine(), documents)
        index = result.output
        assert index["apple"] == [(0, 1), (2, 2)]
        assert index["banana"] == [(0, 1), (1, 1)]
        assert index["cherry"] == [(1, 1)]

    def test_every_token_is_indexed(self, text_corpus):
        small = as_dataset(text_corpus.records[:20], DataType.TEXT)
        result = InvertedIndexWorkload().run(MapReduceEngine(), small)
        tokens = set()
        for document in small.records:
            tokens.update(tokenize(document))
        assert set(result.output) == tokens

    def test_postings_lists_are_sorted(self, text_corpus):
        small = as_dataset(text_corpus.records[:15], DataType.TEXT)
        result = InvertedIndexWorkload().run(MapReduceEngine(), small)
        for postings in result.output.values():
            assert postings == sorted(postings)


class TestPageRank:
    @pytest.fixture()
    def chain_graph(self):
        # 0 -> 1 -> 2 -> 3: rank accumulates towards the sink.
        return as_dataset([(0, 1), (1, 2), (2, 3)], DataType.GRAPH)

    def test_ranks_sum_to_one(self, chain_graph):
        result = PageRankWorkload().run(MapReduceEngine(), chain_graph)
        assert sum(result.output.values()) == pytest.approx(1.0, abs=0.05)

    def test_sink_outranks_source(self, chain_graph):
        result = PageRankWorkload().run(MapReduceEngine(), chain_graph)
        assert result.output[3] > result.output[0]

    def test_hub_attracts_rank(self):
        star = as_dataset(
            [(1, 0), (2, 0), (3, 0), (4, 0)], DataType.GRAPH
        )
        result = PageRankWorkload().run(MapReduceEngine(), star)
        ranks = result.output
        assert ranks[0] == max(ranks.values())

    def test_convergence_stops_before_cap(self, chain_graph):
        result = PageRankWorkload().run(
            MapReduceEngine(), chain_graph, tolerance=1e-3, max_iterations=50
        )
        assert result.extra["iterations"] < 50
        assert result.extra["final_delta"] <= 1e-3

    def test_iteration_cap_respected(self, chain_graph):
        result = PageRankWorkload().run(
            MapReduceEngine(), chain_graph, tolerance=0.0, max_iterations=3
        )
        assert result.extra["iterations"] == 3

    def test_empty_graph(self):
        empty = as_dataset([], DataType.GRAPH)
        result = PageRankWorkload().run(MapReduceEngine(), empty)
        assert result.output == {}

    def test_rmat_graph_runs(self):
        graph = RmatGraphGenerator(seed=1).generate(64)
        result = PageRankWorkload().run(
            MapReduceEngine(), graph, max_iterations=5
        )
        assert len(result.output) > 0


class TestKMeans:
    def test_recovers_planted_clusters(self):
        data = GaussianMixtureGenerator(
            num_components=3, spread=30.0, cluster_std=0.5, seed=2
        ).generate(150)
        result = KMeansWorkload().run(
            MapReduceEngine(), data, num_clusters=3, max_iterations=15
        )
        assignments = result.output["assignments"]
        truth = [row[-1] for row in data.records]
        # Clusters are a permutation of the truth: each found cluster must
        # be dominated by a single true component.
        from collections import Counter, defaultdict

        by_cluster = defaultdict(Counter)
        for found, true in zip(assignments, truth):
            by_cluster[found][true] += 1
        purity = sum(c.most_common(1)[0][1] for c in by_cluster.values())
        assert purity / len(truth) > 0.9

    def test_centroid_count(self):
        data = GaussianMixtureGenerator(seed=3).generate(80)
        result = KMeansWorkload().run(
            MapReduceEngine(), data, num_clusters=4, max_iterations=5
        )
        assert len(result.output["centroids"]) == 4

    def test_convergence_recorded(self):
        data = GaussianMixtureGenerator(seed=4).generate(80)
        result = KMeansWorkload().run(
            MapReduceEngine(), data, num_clusters=4, max_iterations=30
        )
        assert result.extra["iterations"] <= 30
        assert result.extra["movement"] >= 0.0

    def test_too_few_points_rejected(self):
        from repro.core.errors import ExecutionError

        data = GaussianMixtureGenerator(seed=5).generate(2)
        with pytest.raises(ExecutionError):
            KMeansWorkload().run(MapReduceEngine(), data, num_clusters=5)


def _old_distance_squared(a, b):
    """The generator expression k-means started from, added left to right
    from ``int`` 0 as ``sum`` adds it up to Python 3.11: the arithmetic
    every seeded series was recorded with (from 3.12 ``sum`` of floats
    is compensated)."""
    return reduce(add, ((x - y) ** 2 for x, y in zip(a, b)), 0)


def _old_nearest(point, centroids):
    return min(
        range(len(centroids)),
        key=lambda index: _old_distance_squared(point, centroids[index]),
    )


def _old_kmeans(engine, dataset, num_clusters=4, tolerance=1e-3, max_iterations=20):
    """``KMeansWorkload.run_mapreduce`` before its kernels were rewritten:
    ``(output, extra, cost)``."""
    import math

    from repro.engines.base import CostCounters
    from repro.engines.mapreduce import JobConf, MapReduceJob

    points = KMeansWorkload._extract_points(dataset)
    stride = len(points) // num_clusters
    centroids = [points[i * stride] for i in range(num_clusters)]
    total_cost = CostCounters()
    iterations = 0
    movement = float("inf")
    while iterations < max_iterations and movement > tolerance:
        frozen = list(centroids)

        def assign_map(point_id, point):
            best = min(
                range(len(frozen)),
                key=lambda index: _old_distance_squared(point, frozen[index]),
            )
            yield best, point

        def centroid_reduce(cluster, members):
            dimensions = len(members[0])
            mean = tuple(
                reduce(add, (point[d] for point in members), 0) / len(members)
                for d in range(dimensions)
            )
            yield cluster, mean

        job = MapReduceJob(
            f"kmeans-iter-{iterations}", assign_map, centroid_reduce,
            conf=JobConf(sort_keys=False),
        )
        result = engine.run(job, list(enumerate(points)))
        updated = dict(result.output)
        movement = 0.0
        for index in range(num_clusters):
            if index in updated:
                movement += math.sqrt(
                    _old_distance_squared(centroids[index], updated[index])
                )
                centroids[index] = updated[index]
        total_cost.merge(result.cost)
        iterations += 1
    assignments = [_old_nearest(point, centroids) for point in points]
    return (
        {"centroids": centroids, "assignments": assignments},
        {"iterations": iterations, "movement": movement},
        total_cost,
    )


def _outcome(function, *args):
    """``repr`` of what ``function`` returns (NaN equals NaN, ``-0.0`` is
    not ``0.0``, ``1`` is not ``1.0``), or the type of what it raises."""
    try:
        return repr(function(*args))
    except Exception as error:  # the old code's overflow is an outcome too
        return type(error).__name__


_coordinates = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6),
    st.integers(-10**6, 10**6),
    st.sampled_from([0.0, -0.0, 1, 2.5]),
)


#: Floats only, what ``_extract_points`` makes: NaN, ±inf, -0.0, values
#: whose square overflows or underflows, and values that ``x * x``
#: rounds differently from ``x ** 2``.
_float_coordinates = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6),
    st.sampled_from([
        0.0, -0.0, 2.5, 1e200, -1e160, 1e-170,
        2.9312511603933788e-151, -7.4819760855314485e-152,
        6.410830388085625e-152, 1.1025695579972517e-153,
    ]),
)


class TestKMeansKernels:
    """The k-means kernels equal the code they replaced, bit for bit."""

    @settings(max_examples=300)
    @given(st.data())
    def test_distance_and_nearest_equal_the_old_expressions(self, data):
        dimensions = data.draw(st.integers(1, 8))
        vector = st.tuples(*[_coordinates] * dimensions)
        point = data.draw(vector)
        centroids = data.draw(st.lists(vector, min_size=1, max_size=6))
        # Ties: repeat some centroids, and sometimes the point itself.
        centroids += data.draw(
            st.lists(st.sampled_from(centroids + [point]), max_size=3)
        )
        for centroid in centroids:
            assert _outcome(social._distance_squared, point, centroid) == (
                _outcome(_old_distance_squared, point, centroid)
            )
        assert _outcome(social._nearest, point, centroids) == (
            _outcome(_old_nearest, point, centroids)
        )

    @settings(max_examples=300)
    @given(st.data())
    def test_a_block_equals_nearest_point_by_point(self, data):
        dimensions = data.draw(st.integers(1, 8))
        vector = st.tuples(*[_float_coordinates] * dimensions)
        centroids = data.draw(st.lists(vector, min_size=1, max_size=6))
        points = data.draw(st.lists(vector, max_size=12))
        # Ties: repeat some centroids, and sometimes a point.
        centroids += data.draw(
            st.lists(st.sampled_from(centroids + points), max_size=3)
        )
        # Sometimes a coordinate that is not a float, or a short point.
        points += data.draw(st.lists(
            st.tuples(*[_coordinates] * dimensions)
            | st.tuples(*[_float_coordinates] * (dimensions - 1)),
            max_size=1,
        ))
        assert _outcome(social._nearest_block, points, centroids) == _outcome(
            lambda: [social._nearest(point, centroids) for point in points]
        )

    @settings(max_examples=300)
    @given(st.data())
    def test_block_distances_equal_distance_squared(self, data):
        dimensions = data.draw(st.integers(1, 8))
        vector = st.tuples(*[_float_coordinates] * dimensions)
        centroids = data.draw(st.lists(vector, min_size=1, max_size=6))
        points = data.draw(st.lists(vector, min_size=1, max_size=12))
        distances = social._block_distances(
            social._float_columns(points, dimensions),
            social._float_columns(centroids, dimensions),
        ).tolist()
        for centroid, row in zip(centroids, distances, strict=True):
            for point, distance in zip(points, row, strict=True):
                expected = _outcome(social._distance_squared, point, centroid)
                if expected == "OverflowError":
                    assert not math.isfinite(distance)
                else:
                    assert repr(distance) == expected

    @settings(max_examples=100)
    @given(st.data())
    def test_a_finite_float_block_never_falls_back(self, data):
        dimensions = data.draw(st.integers(1, 8))
        vector = st.tuples(*[st.floats(-1e100, 1e100)] * dimensions)
        centroids = data.draw(st.lists(vector, min_size=1, max_size=6))
        points = data.draw(st.lists(vector, min_size=1, max_size=12))
        expected = [social._nearest(point, centroids) for point in points]
        with mock.patch.object(social, "_nearest", side_effect=AssertionError):
            assert social._nearest_block(points, centroids) == expected

    def test_float_power_squares_as_the_operator_does(self):
        """The premise of the block kernel: ``np.float_power(x, 2.0)``
        calls libm ``pow`` as ``x ** 2`` does, so they agree bit for bit
        on every magnitude whose square is finite, subnormals included
        (``np.square`` and ``x * x`` need not)."""
        rng = np.random.default_rng(48)
        x = rng.uniform(1.0, 2.0, 200_000) * np.exp2(
            rng.integers(-560, 511, 200_000)
        )
        x[::2] *= -1
        # Four that ``x * x`` rounds differently from glibc's ``pow``.
        x[:4] = [
            2.9312511603933788e-151, 7.4819760855314485e-152,
            6.410830388085625e-152, 1.1025695579972517e-153,
        ]
        assert (
            np.float_power(x, 2.0).view(np.int64).tolist()
            == np.array([value ** 2 for value in x.tolist()])
            .view(np.int64).tolist()
        )

    def test_the_door_equals_the_mapper_loop(self):
        """Each job's ``group_split`` groups what ``assign_map`` emits, split
        by split, and the job with it reports what the job without it does."""
        checked = []

        class Checking(MapReduceEngine):
            def run(self, job, pairs):
                for split in chunked(pairs, job.conf.num_map_tasks):
                    grouped: dict = {}
                    for key, value in split:
                        for cluster, point in job.mapper(key, value):
                            grouped.setdefault(cluster, []).append(point)
                    assert repr(job.group_split(split)) == repr(grouped)
                result = super().run(job, pairs)
                loop = MapReduceEngine().run(
                    dataclasses.replace(job, group_split=None), pairs
                )
                assert repr(result.output) == repr(loop.output)
                assert result.counters.snapshot() == loop.counters.snapshot()
                assert result.cost == loop.cost
                checked.append(job.name)
                return result

        data = GaussianMixtureGenerator(seed=6).generate(400)
        KMeansWorkload().run(Checking(), data, num_clusters=5)
        assert len(checked) > 1

    def test_ties_and_nan_pick_what_min_picked(self):
        nan = float("nan")
        cases = [
            ((0.0,), [(1.0,), (-1.0,), (1.0,)]),  # a tie: the first
            ((0.0,), [(nan,), (1.0,)]),  # NaN first: min keeps it
            ((0.0,), [(2.0,), (nan,), (1.0,)]),  # NaN later: skipped
            ((1, 2), [(1, 2), (1.0, 2.0)]),  # int 0 and float 0.0 tie
        ]
        for point, centroids in cases:
            assert social._nearest(point, centroids) == (
                _old_nearest(point, centroids)
            )

    @pytest.mark.parametrize("num_clusters", [2, 4, 7])
    def test_a_serial_run_equals_the_old_functions(self, num_clusters):
        data = GaussianMixtureGenerator(seed=num_clusters).generate(600)
        result = KMeansWorkload().run(
            MapReduceEngine(), data, num_clusters=num_clusters
        )
        output, extra, cost = _old_kmeans(
            MapReduceEngine(), data, num_clusters=num_clusters
        )
        assert repr(result.output) == repr(output)
        assert repr(result.extra) == repr(extra)
        assert result.cost == cost

    def test_runs_on_threads_equal_the_old_functions(self):
        """``kmeans-mr-thread`` runs the mapper on two threads at once;
        the module's one ``repeat(2)`` is shared between them.  More
        threads than cores, switching as often as the interpreter allows."""
        import sys

        from repro.execution.parallel import ThreadExecutor

        data = GaussianMixtureGenerator(seed=11).generate(300)
        expected = _old_kmeans(MapReduceEngine(), data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadExecutor(max_workers=6) as executor:
                results = executor.map(
                    lambda _: KMeansWorkload().run(MapReduceEngine(), data),
                    range(6),
                )
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert repr((result.output, result.extra)) == repr(expected[:2])
            assert result.cost == expected[2]


class TestConnectedComponents:
    def test_two_components_found(self):
        graph = as_dataset(
            [(0, 1), (1, 2), (5, 6), (6, 7)], DataType.GRAPH
        )
        result = ConnectedComponentsWorkload().run(MapReduceEngine(), graph)
        assert result.extra["num_components"] == 2
        labels = result.output
        assert labels[0] == labels[1] == labels[2]
        assert labels[5] == labels[6] == labels[7]
        assert labels[0] != labels[5]

    def test_labels_are_component_minimum(self):
        graph = as_dataset([(3, 7), (7, 9)], DataType.GRAPH)
        result = ConnectedComponentsWorkload().run(MapReduceEngine(), graph)
        assert set(result.output.values()) == {3}

    def test_matches_reference_union_find(self, social_graph):
        result = ConnectedComponentsWorkload().run(
            MapReduceEngine(), social_graph
        )
        # Reference: classic union-find.
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for src, dst in social_graph.records:
            parent[find(src)] = find(dst)
        reference_components = len({find(v) for v in parent})
        assert result.extra["num_components"] == reference_components

    def test_single_vertex_graph(self):
        graph = as_dataset([(4, 4)], DataType.GRAPH)
        result = ConnectedComponentsWorkload().run(MapReduceEngine(), graph)
        assert result.extra["num_components"] == 1
