"""Tests for the veracity metrics (Section 5.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import MetricError
from repro.datagen.stream import PoissonArrivals, StreamGenerator
from repro.datagen.text import RandomTextGenerator
from repro.datagen.veracity import (
    VeracityReport,
    align_distributions,
    graph_veracity,
    jensen_shannon_divergence,
    kl_divergence,
    model_veracity,
    stream_veracity,
    table_veracity,
    text_veracity,
    total_variation,
)


class TestDivergencePrimitives:
    def test_kl_identical_is_zero(self):
        p = {"a": 0.5, "b": 0.5}
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-6)

    def test_kl_is_nonnegative(self):
        p = {"a": 0.9, "b": 0.1}
        q = {"a": 0.1, "b": 0.9}
        assert kl_divergence(p, q) > 0

    def test_kl_is_asymmetric(self):
        p = {"a": 0.9, "b": 0.1}
        q = {"a": 0.5, "b": 0.5}
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_js_is_symmetric(self):
        p = {"a": 0.9, "b": 0.1}
        q = {"a": 0.2, "b": 0.8}
        assert jensen_shannon_divergence(p, q) == pytest.approx(
            jensen_shannon_divergence(q, p)
        )

    def test_js_bounded_by_ln2(self):
        p = {"a": 1.0}
        q = {"b": 1.0}
        js = jensen_shannon_divergence(p, q)
        assert 0 <= js <= math.log(2) + 1e-9

    def test_total_variation_bounds(self):
        p = {"a": 1.0}
        q = {"b": 1.0}
        assert total_variation(p, q) == pytest.approx(1.0, abs=1e-6)
        assert total_variation(p, p) == pytest.approx(0.0, abs=1e-6)

    def test_vectors_accepted(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError):
            kl_divergence([0.5, 0.5], [1.0])

    def test_mixed_mapping_and_vector_rejected(self):
        with pytest.raises(MetricError):
            kl_divergence({"a": 1.0}, [1.0])

    def test_align_empty_rejected(self):
        with pytest.raises(MetricError):
            align_distributions({}, {})

    def test_align_covers_union_support(self):
        p_vector, q_vector = align_distributions({"a": 1.0}, {"b": 1.0})
        assert len(p_vector) == len(q_vector) == 2


class TestTextVeracity:
    def test_same_corpus_is_faithful(self, text_corpus):
        report = text_veracity(text_corpus.records, text_corpus.records)
        assert report.score == pytest.approx(0.0, abs=1e-6)
        assert report.is_faithful

    def test_lda_beats_random(self, text_corpus, fitted_lda):
        lda_report = text_veracity(
            text_corpus.records, fitted_lda.generate(60).records
        )
        random_report = text_veracity(
            text_corpus.records,
            RandomTextGenerator(seed=1).generate(60).records,
        )
        assert lda_report.score < random_report.score
        assert lda_report.is_faithful
        assert not random_report.is_faithful

    def test_empty_corpus_rejected(self):
        with pytest.raises(MetricError):
            text_veracity([""], ["words here"])

    def test_report_carries_metrics(self, text_corpus, fitted_lda):
        report = text_veracity(
            text_corpus.records, fitted_lda.generate(20).records
        )
        for key in ("kl_real_vs_synthetic", "js_divergence",
                    "total_variation", "vocabulary_jaccard"):
            assert key in report.metrics


class TestTopicStructureVeracity:
    def test_lda_beats_unigram_on_topic_structure(self, text_corpus, fitted_lda):
        """The paper's full worked example: word AND topic distributions."""
        from repro.datagen.text import UnigramTextGenerator
        from repro.datagen.veracity import topic_structure_veracity

        unigram = UnigramTextGenerator(seed=3).fit(text_corpus)
        lda_report = topic_structure_veracity(
            text_corpus.records, fitted_lda.generate(60).records,
            fitted_lda.model,
        )
        unigram_report = topic_structure_veracity(
            text_corpus.records, unigram.generate(60).records,
            fitted_lda.model,
        )
        assert lda_report.score < unigram_report.score
        assert (
            lda_report.metrics["mean_share_synthetic"]
            > unigram_report.metrics["mean_share_synthetic"]
        )

    def test_real_corpus_is_topically_concentrated(self, text_corpus, fitted_lda):
        from repro.datagen.veracity import topic_structure_veracity

        report = topic_structure_veracity(
            text_corpus.records, text_corpus.records, fitted_lda.model
        )
        assert report.score == pytest.approx(0.0, abs=1e-6)
        assert report.metrics["mean_share_real"] > 0.6

    def test_empty_corpus_rejected(self, fitted_lda):
        from repro.datagen.veracity import topic_structure_veracity

        with pytest.raises(MetricError):
            topic_structure_veracity([], ["words"], fitted_lda.model)

    def test_mixture_inference_sums_to_one(self, fitted_lda):
        mixture = fitted_lda.model.infer_document_mixture(
            ["market", "stock", "price"]
        )
        assert mixture.sum() == pytest.approx(1.0)
        assert len(mixture) == fitted_lda.model.num_topics

    def test_unknown_words_give_uniform_mixture(self, fitted_lda):
        mixture = fitted_lda.model.infer_document_mixture(["qqqqq"])
        assert mixture.max() == pytest.approx(1.0 / fitted_lda.model.num_topics)


class TestGraphVeracity:
    def test_same_graph_scores_zero(self, social_graph):
        report = graph_veracity(social_graph.records, social_graph.records)
        assert report.score == pytest.approx(0.0, abs=1e-6)

    def test_empty_graph_rejected(self, social_graph):
        with pytest.raises(MetricError):
            graph_veracity([], social_graph.records)

    def test_reports_average_degrees(self, social_graph):
        report = graph_veracity(social_graph.records, social_graph.records)
        assert report.metrics["avg_degree_real"] == pytest.approx(
            report.metrics["avg_degree_synthetic"]
        )


class TestTableVeracity:
    def test_same_table_scores_zero(self, retail_tables):
        rows = retail_tables["orders"].records
        report = table_veracity(rows, rows)
        assert report.score == pytest.approx(0.0, abs=1e-4)

    def test_shuffled_column_raises_score(self, retail_tables):
        rows = retail_tables["orders"].records
        # Replace the skewed customer column with a uniform one.
        rng = np.random.default_rng(1)
        broken = [
            (row[0], int(rng.integers(0, 80)), row[2], row[3], row[4])
            for row in rows
        ]
        assert table_veracity(rows, broken).score > table_veracity(rows, rows).score

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            table_veracity([], [(1,)])


class TestStreamVeracity:
    def test_same_process_is_faithful(self):
        a = StreamGenerator(arrivals=PoissonArrivals(100.0), seed=1).generate(1500)
        b = StreamGenerator(arrivals=PoissonArrivals(100.0), seed=2).generate(1500)
        report = stream_veracity(
            [event.timestamp for event in a.records],
            [event.timestamp for event in b.records],
        )
        assert report.is_faithful

    def test_different_rates_diverge(self):
        fast = StreamGenerator(arrivals=PoissonArrivals(1000.0), seed=1).generate(800)
        slow = StreamGenerator(arrivals=PoissonArrivals(10.0), seed=2).generate(800)
        report = stream_veracity(
            [event.timestamp for event in fast.records],
            [event.timestamp for event in slow.records],
        )
        assert not report.is_faithful

    def test_requires_two_events(self):
        with pytest.raises(MetricError):
            stream_veracity([1.0], [1.0, 2.0])


class TestModelVeracity:
    def test_model_metric_type_one(self):
        """Section 5.1 metric (1): raw data vs constructed model."""
        real = {"a": 0.6, "b": 0.4}
        model = {"a": 0.58, "b": 0.42}
        report = model_veracity(real, model)
        assert report.is_faithful
        assert report.metrics["kl_divergence"] >= 0

    def test_threshold_constant_is_half_ln2(self):
        assert VeracityReport.FAITHFUL_THRESHOLD == pytest.approx(
            0.5 * math.log(2)
        )
