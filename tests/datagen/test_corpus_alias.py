"""Tests for the embedded seed corpora."""

from __future__ import annotations

from repro.datagen.corpus import (
    TOPIC_VOCABULARIES,
    load_retail_tables,
    load_social_graph,
    load_text_corpus,
)
from repro.datagen.graph import degree_counts


class TestTextCorpus:
    def test_deterministic(self):
        assert load_text_corpus(20, 10).records == load_text_corpus(20, 10).records

    def test_documents_have_requested_length(self):
        corpus = load_text_corpus(num_documents=10, words_per_document=25)
        assert all(len(doc.split()) == 25 for doc in corpus.records)

    def test_topic_vocabularies_are_disjoint(self):
        seen: set[str] = set()
        for vocabulary in TOPIC_VOCABULARIES.values():
            words = set(vocabulary)
            assert not words & seen
            seen |= words

    def test_documents_are_topically_concentrated(self):
        """Each document should lean heavily on one topic's vocabulary."""
        corpus = load_text_corpus(num_documents=40, words_per_document=60)
        concentrated = 0
        for document in corpus.records:
            tokens = document.split()
            best = max(
                sum(1 for token in tokens if token in set(vocab))
                for vocab in TOPIC_VOCABULARIES.values()
            )
            topical = sum(
                1 for token in tokens
                if any(token in set(v) for v in TOPIC_VOCABULARIES.values())
            )
            if topical and best / topical > 0.6:
                concentrated += 1
        assert concentrated > len(corpus.records) * 0.8


class TestSocialGraph:
    def test_deterministic(self):
        assert load_social_graph(100).records == load_social_graph(100).records

    def test_vertex_count(self):
        graph = load_social_graph(num_vertices=150)
        vertices = {v for edge in graph.records for v in edge}
        assert len(vertices) == 150

    def test_heavy_tailed_degrees(self):
        graph = load_social_graph(num_vertices=300)
        degrees = degree_counts(graph.records)
        maximum = max(degrees.values())
        mean = sum(degrees.values()) / len(degrees)
        assert maximum > 3 * mean


class TestRetailTables:
    def test_three_tables_with_schemas(self):
        tables = load_retail_tables()
        assert set(tables) == {"customers", "products", "orders"}
        for dataset in tables.values():
            assert "schema" in dataset.metadata

    def test_foreign_keys_resolve(self):
        tables = load_retail_tables(num_customers=50, num_products=20,
                                    num_orders=100)
        customer_ids = {row[0] for row in tables["customers"].records}
        product_ids = {row[0] for row in tables["products"].records}
        for _, customer, product, _, _ in tables["orders"].records:
            assert customer in customer_ids
            assert product in product_ids

    def test_order_skew(self):
        from collections import Counter

        tables = load_retail_tables(num_orders=400)
        counts = Counter(row[1] for row in tables["orders"].records)
        # Zipf skew: the hottest customer has far more than the average.
        assert counts.most_common(1)[0][1] > 3 * (400 / len(counts))
