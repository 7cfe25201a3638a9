"""Integration tests: the whole framework driven through its facade."""

from __future__ import annotations

import pytest

from repro import BenchmarkSpec, BigDataBenchmark


@pytest.fixture(scope="module")
def framework():
    return BigDataBenchmark()


class TestEveryBuiltinPrescriptionRuns:
    """Every prescription in the repository must run end to end on every
    engine its workload supports — the framework's completeness check."""

    @pytest.mark.parametrize(
        "prescription",
        [
            "micro-sort", "micro-wordcount", "micro-grep", "micro-cfs",
            "search-index", "search-pagerank",
            "social-kmeans", "social-connected-components",
            "ecommerce-recommend", "ecommerce-classify",
            "database-aggregate-join", "oltp-read-write", "oltp-hybrid",
            "realtime-windowed-aggregation", "realtime-update-rate",
            "multimedia-image-classification", "learning-mlp",
        ],
    )
    def test_prescription_runs(self, framework, prescription):
        volume = 40 if prescription != "search-pagerank" else 64
        report = framework.run(prescription, volume=volume)
        assert report.results
        for result in report.results:
            assert result.mean("duration") >= 0

    def test_repository_is_fully_covered(self, framework):
        listed = set(framework.user_interface.available_prescriptions())
        tested = {
            "micro-sort", "micro-wordcount", "micro-grep", "micro-cfs",
            "search-index", "search-pagerank",
            "social-kmeans", "social-connected-components",
            "ecommerce-recommend", "ecommerce-classify",
            "database-aggregate-join", "oltp-read-write", "oltp-hybrid",
            "realtime-windowed-aggregation", "realtime-update-rate",
            "multimedia-image-classification", "learning-mlp",
        }
        assert listed == tested


class TestCrossSystemComparison:
    """The functional-view experiment (E10): one abstract test, two
    different system types, comparable results."""

    def test_relational_query_all_engines_same_answer(self, framework):
        report = framework.run("database-aggregate-join", volume=80)
        assert {result.engine for result in report.results} == {
            "dbms", "mapreduce", "nosql",
        }

    def test_oltp_both_stores_report_latency(self, framework):
        report = framework.run(
            BenchmarkSpec(
                "oltp-read-write",
                volume=60,
                params={"operation_count": 200},
            )
        )
        for result in report.results:
            assert result.mean("mean_latency") > 0
            assert result.mean("latency_p99") >= result.mean("mean_latency")

    def test_ranking_is_reported(self, framework):
        report = framework.run("database-aggregate-join", volume=60)
        ranking = report.step("analysis-evaluation").detail["ranking"]
        assert len(ranking) == 3
        # Ranked ascending by duration (lead metric, lower is better).
        assert ranking[0][1] <= ranking[1][1] <= ranking[2][1]


class TestVelocityThroughTheSpec:
    def test_parallel_data_generation(self, framework):
        report = framework.run(
            "micro-wordcount", volume=48, data_partitions=6
        )
        assert report.step("data-generation").detail["partitions"] == 6
        assert report.results[0].mean("throughput") > 0


class TestVeracityPipelineEndToEnd:
    def test_fitted_generator_flows_through_prescription(self, framework):
        """micro-grep uses lda-text fitted on the embedded corpus: the
        whole Figure 3 pipeline inside the Figure 1 process."""
        report = framework.run("micro-grep", volume=30)
        generation = report.step("data-generation")
        assert generation.detail["generator"] == "lda-text"
        assert generation.detail["records"] == 30


class TestMetricsFlow:
    def test_architecture_and_user_metrics_both_present(self, framework):
        report = framework.run("micro-wordcount", volume=30)
        result = report.results[0]
        assert "throughput" in result.metrics  # user-perceivable
        assert "ops_per_second" in result.metrics  # architecture
        assert "energy" in result.metrics
        assert "cost" in result.metrics

    def test_energy_scales_with_work(self, framework):
        small = framework.run("micro-wordcount", volume=20).results[0]
        large = framework.run("micro-wordcount", volume=200).results[0]
        assert large.mean("energy") > small.mean("energy")
