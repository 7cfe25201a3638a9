"""Tests for the five-step process (Figure 1) and layers (Figure 2)."""

from __future__ import annotations

import pytest

from repro import BenchmarkSpec, BigDataBenchmark
from repro.core.errors import SpecError
from repro.core.process import BenchmarkingProcess


@pytest.fixture(scope="module")
def framework():
    return BigDataBenchmark()


class TestBenchmarkingProcess:
    def test_all_five_steps_run_in_order(self, framework):
        report = framework.run("micro-wordcount", volume=30)
        assert [step.step for step in report.steps] == list(
            BenchmarkingProcess.STEP_NAMES
        )

    def test_planning_detail(self, framework):
        report = framework.run("micro-wordcount", volume=30)
        planning = report.step("planning")
        assert planning.detail["engines"] == ["mapreduce"]
        assert "duration" in planning.detail["metrics"]

    def test_data_generation_detail(self, framework):
        report = framework.run("micro-wordcount", volume=30)
        generation = report.step("data-generation")
        assert generation.detail["records"] == 30
        assert generation.detail["bytes"] > 0

    def test_execution_produces_results_per_engine(self, framework):
        report = framework.run("database-aggregate-join", volume=60)
        assert sorted(result.engine for result in report.results) == [
            "dbms", "mapreduce", "nosql",
        ]

    def test_repeats_respected(self, framework):
        report = framework.run("micro-wordcount", volume=20, repeats=3)
        assert report.results[0].repeats == 3
        assert report.step("execution").detail["runs"] == 3

    def test_analysis_ranks_engines(self, framework):
        report = framework.run("database-aggregate-join", volume=60)
        analysis = report.step("analysis-evaluation")
        assert analysis.detail["lead_metric"] == "duration"
        assert len(analysis.detail["ranking"]) == 3

    def test_invalid_spec_fails_at_planning(self, framework):
        with pytest.raises(SpecError):
            framework.run(BenchmarkSpec("micro-wordcount", repeats=0))

    def test_unknown_step_lookup(self, framework):
        report = framework.run("micro-wordcount", volume=10)
        with pytest.raises(KeyError):
            report.step("imaginary")

    def test_data_partitions_flow_to_generation(self, framework):
        report = framework.run("micro-wordcount", volume=24, data_partitions=4)
        assert report.step("data-generation").detail["partitions"] == 4
        assert report.step("data-generation").detail["records"] == 24


class TestLayers:
    def test_user_interface_enumerations(self, framework):
        ui = framework.user_interface
        assert "micro-sort" in ui.available_prescriptions()
        assert "search engine" in ui.available_domains()
        assert "mapreduce" in ui.available_engines()
        assert "lda-text" in ui.available_generators()
        assert "wordcount" in ui.available_workloads()

    def test_build_spec_validates(self, framework):
        with pytest.raises(SpecError):
            framework.user_interface.build_spec("micro-sort", repeats=0)

    def test_function_layer_generates_data(self, framework):
        dataset = framework.function_layer.generate_data("random-text", 12)
        assert dataset.num_records == 12

    def test_function_layer_veracity_path(self, framework):
        dataset = framework.function_layer.generate_data(
            "unigram-text", 8, fit_on="text-corpus"
        )
        assert dataset.num_records == 8

    def test_execution_layer_formats(self, framework):
        assert "csv" in framework.execution_layer.available_formats()

    def test_execution_layer_converts(self, framework, retail_tables):
        converted = framework.execution_layer.convert_format(
            retail_tables["orders"], "csv"
        )
        assert converted.format_name == "csv"

    def test_execution_layer_reports(self, framework):
        report = framework.run("micro-wordcount", volume=15)
        table = framework.execution_layer.report(
            report.results, ["duration", "throughput"]
        )
        assert "duration" in table

    def test_prescription_accessor(self, framework):
        assert framework.prescription("micro-sort").workload == "sort"
