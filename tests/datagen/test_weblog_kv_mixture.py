"""Tests for the web-log/review, key-value, and mixture generators."""

from __future__ import annotations

import pytest

from repro.core.errors import GenerationError
from repro.datagen.base import DataType
from repro.datagen.kv import KeyValueGenerator
from repro.datagen.mixture import GaussianMixtureGenerator
from repro.datagen.weblog import ReviewGenerator, WebLogGenerator

from tests._datasets import as_dataset


class TestWebLogGenerator:
    def test_records_reference_real_customers(self, retail_tables):
        generator = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=1
        )
        customer_ids = {row[0] for row in retail_tables["customers"].records}
        for record in generator.generate(100).records:
            assert record["customer_id"] in customer_ids

    def test_product_paths_reference_real_products(self, retail_tables):
        generator = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=2
        )
        product_ids = {row[0] for row in retail_tables["products"].records}
        for record in generator.generate(300).records:
            if record["path"].startswith("/product/"):
                assert int(record["path"].rsplit("/", 1)[1]) in product_ids

    def test_timestamps_increase(self, retail_tables):
        generator = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=3
        )
        timestamps = [r["timestamp"] for r in generator.generate(50).records]
        assert timestamps == sorted(timestamps)

    def test_skew_makes_hot_customers(self, retail_tables):
        from collections import Counter

        generator = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"],
            skew=1.5, seed=4,
        )
        counts = Counter(
            record["customer_id"] for record in generator.generate(500).records
        )
        top_share = counts.most_common(1)[0][1] / 500
        assert top_share > 0.1  # clearly non-uniform

    def test_requires_schema_metadata(self, retail_tables):
        bare = as_dataset([(1,)], DataType.TABLE)
        with pytest.raises(GenerationError):
            WebLogGenerator(bare, retail_tables["products"])

    def test_rate_validation(self, retail_tables):
        with pytest.raises(GenerationError):
            WebLogGenerator(
                retail_tables["customers"], retail_tables["products"],
                requests_per_second=0.0,
            )

    def test_data_type(self, retail_tables):
        generator = WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=5
        )
        assert generator.generate(3).data_type is DataType.WEB_LOG


class TestReviewGenerator:
    def test_reviews_chain_to_tables_and_text_model(
        self, retail_tables, fitted_lda
    ):
        generator = ReviewGenerator(
            retail_tables["customers"], retail_tables["products"],
            fitted_lda, seed=1,
        )
        product_ids = {row[0] for row in retail_tables["products"].records}
        reviews = generator.generate(30).records
        for review in reviews:
            assert review["product_id"] in product_ids
            assert 1 <= review["rating"] <= 5
            assert review["text"]

    def test_ratings_skew_positive(self, retail_tables, fitted_lda):
        generator = ReviewGenerator(
            retail_tables["customers"], retail_tables["products"],
            fitted_lda, seed=2,
        )
        ratings = [r["rating"] for r in generator.generate(300).records]
        assert sum(1 for r in ratings if r >= 4) > len(ratings) / 2

    def test_unfitted_text_generator_rejected(self, retail_tables):
        from repro.datagen.text import UnigramTextGenerator

        with pytest.raises(GenerationError):
            ReviewGenerator(
                retail_tables["customers"], retail_tables["products"],
                UnigramTextGenerator(),
            )

    def test_review_ids_unique_across_partitions(self, retail_tables, fitted_lda):
        generator = ReviewGenerator(
            retail_tables["customers"], retail_tables["products"],
            fitted_lda, seed=3,
        )
        reviews = generator.generate_parallel(40, 4).records
        ids = [review["review_id"] for review in reviews]
        assert len(set(ids)) == len(ids)


class TestKeyValueGenerator:
    def test_key_format_and_uniqueness(self):
        records = KeyValueGenerator(seed=1).generate(50).records
        keys = [key for key, _ in records]
        assert len(set(keys)) == 50
        assert all(key.startswith("user") for key in keys)

    def test_keys_dense_across_partitions(self):
        records = KeyValueGenerator(seed=2).generate_parallel(40, 4).records
        keys = sorted(key for key, _ in records)
        assert keys == [f"user{i:012d}" for i in range(40)]

    def test_field_shape(self):
        records = KeyValueGenerator(
            field_count=3, field_length=8, seed=3
        ).generate(5).records
        for _, fields in records:
            assert set(fields) == {"field0", "field1", "field2"}
            assert all(len(value) == 8 for value in fields.values())

    def test_validation(self):
        with pytest.raises(GenerationError):
            KeyValueGenerator(field_count=0)
        with pytest.raises(GenerationError):
            KeyValueGenerator(field_length=0)


class TestGaussianMixtureGenerator:
    def test_schema_and_label_column(self):
        dataset = GaussianMixtureGenerator(
            num_components=3, dimensions=2, seed=1
        ).generate(50)
        assert dataset.metadata["schema"] == ("x0", "x1", "true_component")
        assert all(0 <= row[-1] < 3 for row in dataset.records)

    def test_points_cluster_near_centres(self):
        generator = GaussianMixtureGenerator(
            num_components=2, dimensions=2, spread=20.0, cluster_std=0.5, seed=2
        )
        for row in generator.generate(200).records:
            centre = generator.centres[row[-1]]
            distance = sum(
                (value - centre[d]) ** 2 for d, value in enumerate(row[:-1])
            ) ** 0.5
            assert distance < 4.0  # within a few std of its own centre

    def test_partitions_share_centres(self):
        generator = GaussianMixtureGenerator(seed=3)
        part_a = generator.generate_partition(100, 0, 2)
        part_b = generator.generate_partition(100, 1, 2)
        assert part_a != part_b  # different points
        # but both label against the same centre set
        assert generator.centres.shape == (4, 2)

    def test_validation(self):
        with pytest.raises(GenerationError):
            GaussianMixtureGenerator(num_components=0)
        with pytest.raises(GenerationError):
            GaussianMixtureGenerator(dimensions=0)
        with pytest.raises(GenerationError):
            GaussianMixtureGenerator(cluster_std=0.0)
