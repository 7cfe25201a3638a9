"""Tests for the scale-down sampling tools."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.errors import GenerationError
from repro.datagen.graph import average_degree
from repro.datagen.sampling import (
    forest_fire_sample,
    random_edge_sample,
    reservoir_sample,
)


class TestReservoirSample:
    def test_sample_size_respected(self):
        sample = reservoir_sample(range(1000), 50, seed=1)
        assert len(sample) == 50

    def test_small_input_returned_whole(self):
        assert sorted(reservoir_sample([1, 2, 3], 10, seed=1)) == [1, 2, 3]

    def test_items_come_from_input(self):
        sample = reservoir_sample(range(100), 20, seed=2)
        assert all(0 <= item < 100 for item in sample)

    def test_deterministic(self):
        assert reservoir_sample(range(100), 10, seed=3) == reservoir_sample(
            range(100), 10, seed=3
        )

    def test_roughly_uniform(self):
        hits = Counter()
        for seed in range(300):
            for item in reservoir_sample(range(10), 3, seed=seed):
                hits[item] += 1
        # Every item selected at least once over many trials.
        assert len(hits) == 10

    def test_negative_size_rejected(self):
        with pytest.raises(GenerationError):
            reservoir_sample([1], -1)

    def test_works_on_iterators(self):
        sample = reservoir_sample(iter(range(100)), 5, seed=4)
        assert len(sample) == 5


class TestGraphSampling:
    def test_random_edge_fraction(self, social_graph):
        sample = random_edge_sample(social_graph.records, 0.25, seed=2)
        assert len(sample) == pytest.approx(
            0.25 * len(social_graph.records), abs=1
        )

    def test_random_edge_subset(self, social_graph):
        sample = random_edge_sample(social_graph.records, 0.3, seed=3)
        assert set(sample) <= set(social_graph.records)

    def test_forest_fire_preserves_degree_better_than_edge_sampling(
        self, social_graph
    ):
        """The veracity rationale for forest fire: degrees survive."""
        real = average_degree(social_graph.records)
        fire = average_degree(
            forest_fire_sample(social_graph.records, 0.5, seed=4)
        )
        edge = average_degree(
            random_edge_sample(social_graph.records, 0.5, seed=4)
        )
        assert abs(fire - real) < abs(edge - real)

    def test_forest_fire_validation(self):
        with pytest.raises(GenerationError):
            forest_fire_sample([(0, 1)], 0.5, forward_probability=1.0)
        with pytest.raises(GenerationError):
            forest_fire_sample([(0, 1)], 0.0)

    def test_empty_graph(self):
        assert random_edge_sample([], 0.5) == []
        assert forest_fire_sample([], 0.5) == []
