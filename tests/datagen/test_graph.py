"""Tests for graph generators and degree-distribution helpers."""

from __future__ import annotations

import pytest

from repro.core.errors import GenerationError
from repro.datagen.base import DataType
from repro.datagen.graph import (
    ErdosRenyiGenerator,
    PreferentialAttachmentGenerator,
    RmatGraphGenerator,
    average_degree,
    degree_counts,
    log_binned_degree_distribution,
)

from tests._datasets import as_dataset


class TestDegreeHelpers:
    EDGES = [(0, 1), (0, 2), (0, 3), (1, 2)]

    def test_degree_counts(self):
        degrees = degree_counts(self.EDGES)
        assert degrees[0] == 3
        assert degrees[3] == 1

    def test_average_degree(self):
        # 4 edges, 4 vertices → average degree 2.
        assert average_degree(self.EDGES) == pytest.approx(2.0)

    def test_average_degree_empty(self):
        assert average_degree([]) == 0.0

    def test_log_binned_distribution_normalised(self, social_graph):
        binned = log_binned_degree_distribution(social_graph.records)
        assert abs(binned.sum() - 1.0) < 1e-9


class TestRmatGenerator:
    def test_parameter_validation(self):
        with pytest.raises(GenerationError):
            RmatGraphGenerator(a=0.9, b=0.3, c=0.3)  # d < 0
        with pytest.raises(GenerationError):
            RmatGraphGenerator(edges_per_vertex=0)

    def test_edge_count_scales_with_volume(self):
        generator = RmatGraphGenerator(edges_per_vertex=3.0, seed=1)
        small = generator.generate(64)
        large = generator.generate(256)
        assert len(large.records) == pytest.approx(4 * len(small.records), rel=0.05)

    def test_vertices_within_bounds(self):
        generator = RmatGraphGenerator(seed=2)
        for src, dst in generator.generate(128).records:
            assert 0 <= src < 128
            assert 0 <= dst < 128

    def test_skew_parameter_concentrates_edges(self):
        skewed = RmatGraphGenerator(a=0.85, b=0.05, c=0.05, seed=3).generate(256)
        flat = RmatGraphGenerator(a=0.25, b=0.25, c=0.25, seed=3).generate(256)
        skewed_max = max(degree_counts(skewed.records).values())
        flat_max = max(degree_counts(flat.records).values())
        assert skewed_max > flat_max

    def test_fit_learns_average_degree(self, social_graph):
        generator = RmatGraphGenerator(seed=4).fit(social_graph)
        expected = average_degree(social_graph.records) / 2.0
        assert generator.edges_per_vertex == pytest.approx(expected)

    def test_fit_on_empty_graph_rejected(self):
        empty = as_dataset([], DataType.GRAPH)
        with pytest.raises(GenerationError):
            RmatGraphGenerator().fit(empty)

    def test_fitted_rmat_beats_erdos_renyi_on_veracity(self, social_graph):
        """The E9 ablation shape: veracity-aware beats veracity-unaware."""
        from repro.datagen.veracity import graph_veracity

        rmat = RmatGraphGenerator(seed=5).fit(social_graph)
        erdos = ErdosRenyiGenerator(
            edges_per_vertex=rmat.edges_per_vertex, seed=5
        )
        rmat_score = graph_veracity(
            social_graph.records, rmat.generate(256).records
        ).score
        erdos_score = graph_veracity(
            social_graph.records, erdos.generate(256).records
        ).score
        assert rmat_score < erdos_score

    def test_deterministic(self):
        a = RmatGraphGenerator(seed=6).generate(64).records
        b = RmatGraphGenerator(seed=6).generate(64).records
        assert a == b


class TestPreferentialAttachment:
    def test_heavy_tail(self):
        generator = PreferentialAttachmentGenerator(edges_per_vertex=2, seed=1)
        degrees = degree_counts(generator.generate(300).records)
        maximum = max(degrees.values())
        mean = sum(degrees.values()) / len(degrees)
        assert maximum > 4 * mean  # hubs exist

    def test_fit_learns_attachment_count(self, social_graph):
        generator = PreferentialAttachmentGenerator(seed=2).fit(social_graph)
        assert generator.edges_per_vertex >= 1

    def test_partitions_cover_full_graph(self):
        generator = PreferentialAttachmentGenerator(edges_per_vertex=2, seed=3)
        whole = generator.generate(100)
        parts = generator.generate_parallel(100, 4)
        assert sorted(parts.records) == sorted(whole.records)

    def test_tiny_volume(self):
        generator = PreferentialAttachmentGenerator(edges_per_vertex=3, seed=4)
        assert generator.generate(1).records == []

    def test_invalid_parameters(self):
        with pytest.raises(GenerationError):
            PreferentialAttachmentGenerator(edges_per_vertex=0)


class TestErdosRenyi:
    def test_edge_count(self):
        dataset = ErdosRenyiGenerator(edges_per_vertex=2.0, seed=1).generate(100)
        assert len(dataset.records) == 200

    def test_no_hubs(self):
        degrees = degree_counts(
            ErdosRenyiGenerator(edges_per_vertex=3.0, seed=2).generate(500).records
        )
        maximum = max(degrees.values())
        mean = sum(degrees.values()) / len(degrees)
        assert maximum < 4 * mean  # no heavy tail

    def test_invalid_parameters(self):
        with pytest.raises(GenerationError):
            ErdosRenyiGenerator(edges_per_vertex=-1.0)
