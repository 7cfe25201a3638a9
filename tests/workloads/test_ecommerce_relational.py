"""Tests for e-commerce and relational workloads."""

from __future__ import annotations

import pytest

from repro.core.errors import ExecutionError
from repro.datagen.base import DataType
from repro.datagen.weblog import WebLogGenerator
from repro.engines.dbms import DbmsEngine
from repro.engines.mapreduce import MapReduceEngine
from repro.workloads import (
    CollaborativeFilteringWorkload,
    CountUrlLinksWorkload,
    NaiveBayesWorkload,
    RelationalQueryWorkload,
    derive_products,
    label_document,
)

from tests._datasets import as_dataset


class TestCollaborativeFiltering:
    @pytest.fixture()
    def baskets(self):
        # Customers 1/2 both buy products 10 & 11; customer 3 buys 12 alone.
        rows = [
            (0, 1, 10, 1, 0), (1, 1, 11, 1, 0),
            (2, 2, 10, 1, 0), (3, 2, 11, 1, 0),
            (4, 3, 12, 1, 0),
        ]
        return as_dataset(
            rows, DataType.TABLE,
            schema=("order_id", "customer_id", "product_id", "quantity", "day"),
        )

    def test_cooccurring_items_recommended(self, baskets):
        result = CollaborativeFilteringWorkload().run(MapReduceEngine(), baskets)
        recommendations = result.output
        assert recommendations[10] == [11]
        assert recommendations[11] == [10]

    def test_isolated_item_gets_no_recommendations(self, baskets):
        result = CollaborativeFilteringWorkload().run(MapReduceEngine(), baskets)
        assert 12 not in result.output

    def test_top_n_limits_list(self, retail_tables):
        result = CollaborativeFilteringWorkload().run(
            MapReduceEngine(), retail_tables["orders"], top_n=3
        )
        assert all(len(items) <= 3 for items in result.output.values())

    def test_requires_schema(self):
        bare = as_dataset([(1, 2)], DataType.TABLE)
        with pytest.raises(ExecutionError):
            CollaborativeFilteringWorkload().run(MapReduceEngine(), bare)


class TestNaiveBayes:
    def test_labels_derive_from_topic_vocabulary(self):
        assert label_document("the stock market price investor") == "finance"
        assert label_document("research study experiment theory") == "science"

    def test_accuracy_on_topical_corpus(self, text_corpus):
        result = NaiveBayesWorkload().run(MapReduceEngine(), text_corpus)
        assert result.extra["accuracy"] > 0.7

    def test_train_fraction_validation(self, text_corpus):
        with pytest.raises(ExecutionError):
            NaiveBayesWorkload().run(
                MapReduceEngine(), text_corpus, train_fraction=1.0
            )

    def test_output_reports_labels(self, text_corpus):
        result = NaiveBayesWorkload().run(MapReduceEngine(), text_corpus)
        assert set(result.output["labels"]) <= {
            "sports", "technology", "finance", "science",
        }


class TestRelationalQuery:
    def test_dbms_and_mapreduce_agree(self, retail_tables):
        """The paper's functional-view claim: same abstract test, same
        answer, on two different system types."""
        orders = retail_tables["orders"]
        workload = RelationalQueryWorkload()
        dbms_rows = sorted(workload.run(DbmsEngine(), orders).output)
        mr_rows = sorted(workload.run(MapReduceEngine(), orders).output)
        assert [(c, pytest.approx(q)) for c, q in dbms_rows] == mr_rows

    def test_selection_filters_rows(self, retail_tables):
        orders = retail_tables["orders"]
        strict = RelationalQueryWorkload().run(
            DbmsEngine(), orders, min_quantity=5
        )
        loose = RelationalQueryWorkload().run(
            DbmsEngine(), orders, min_quantity=1
        )
        strict_total = sum(row[1] for row in strict.output)
        loose_total = sum(row[1] for row in loose.output)
        assert strict_total < loose_total

    def test_derived_products_are_deterministic(self, retail_tables):
        orders = retail_tables["orders"]
        assert derive_products(orders) == derive_products(orders)

    def test_plan_recorded_for_dbms(self, retail_tables):
        result = RelationalQueryWorkload().run(
            DbmsEngine(), retail_tables["orders"]
        )
        assert "plan" in result.extra

    def test_requires_order_columns(self):
        bad = as_dataset([(1, 2)], DataType.TABLE, schema=("a", "b"))
        with pytest.raises(ExecutionError):
            RelationalQueryWorkload().run(DbmsEngine(), bad)


class TestCountUrlLinks:
    @pytest.fixture()
    def weblog(self, retail_tables):
        return WebLogGenerator(
            retail_tables["customers"], retail_tables["products"], seed=9
        ).generate(200)

    def test_dbms_and_mapreduce_agree(self, weblog):
        workload = CountUrlLinksWorkload()
        dbms_rows = workload.run(DbmsEngine(), weblog).output
        mr_rows = workload.run(MapReduceEngine(), weblog).output
        assert sorted(dbms_rows) == sorted(mr_rows)

    def test_counts_sum_to_log_size(self, weblog):
        result = CountUrlLinksWorkload().run(MapReduceEngine(), weblog)
        assert sum(count for _, count in result.output) == 200

    def test_counts_match_reference(self, weblog):
        from collections import Counter

        reference = Counter(record["path"] for record in weblog.records)
        result = CountUrlLinksWorkload().run(MapReduceEngine(), weblog)
        assert dict(result.output) == dict(reference)
