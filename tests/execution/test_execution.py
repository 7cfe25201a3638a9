"""Tests for the execution layer: config, runner, harness, report."""

from __future__ import annotations

import json

import pytest

import repro  # noqa: F401 - triggers default registration
from repro.core.errors import ExecutionError
from repro.core.results import RunResult
from repro.engines.dbms import PlannerConfig
from repro.execution.config import SystemConfiguration, prepare_input
from repro.execution.harness import BenchmarkHarness
from repro.execution.report import (
    RESULT_STYLES,
    ascii_table,
    format_value,
    markdown_table,
    render_results,
    render_trace,
)
from repro.execution.runner import RunnerOptions, TestRunner
from repro.observability import Span


class TestSystemConfiguration:
    def test_build_mapreduce_with_cluster_options(self):
        configuration = SystemConfiguration("mapreduce", {"num_nodes": 2})
        engine = configuration.build()
        assert engine.cluster_model.spec.num_nodes == 2

    def test_build_dbms_with_planner_options(self):
        configuration = SystemConfiguration(
            "dbms", {"join_algorithm": "merge"}
        )
        engine = configuration.build()
        assert engine.planner.config.join_algorithm == "merge"

    def test_build_nosql_with_partitions(self):
        configuration = SystemConfiguration("nosql", {"num_partitions": 3})
        assert configuration.build().num_partitions == 3

    def test_unknown_engine_rejected(self):
        with pytest.raises(ExecutionError):
            SystemConfiguration("spark").build()

    def test_prepare_input_uses_engine_format(self, text_corpus):
        from repro.engines.mapreduce import MapReduceEngine

        converted = prepare_input(text_corpus, MapReduceEngine())
        assert converted.format_name == "key-value"


class TestRunnerBehaviour:
    def test_run_aggregates_repeats(self):
        runner = TestRunner(options=RunnerOptions(repeats=3))
        result = runner.run("micro-wordcount", "mapreduce", 20)
        assert result.repeats == 3
        assert result.mean("throughput") > 0

    def test_warmup_runs_not_counted(self):
        runner = TestRunner(options=RunnerOptions(repeats=2, warmup_runs=1))
        result = runner.run("micro-wordcount", "mapreduce", 15)
        assert result.repeats == 2

    def test_repeats_use_fresh_engines(self):
        """A stateful engine (DBMS) must not see tables from prior repeats."""
        runner = TestRunner(options=RunnerOptions(repeats=3))
        result = runner.run("database-aggregate-join", "dbms", 60)
        assert result.repeats == 3  # would raise "table exists" otherwise

    def test_run_on_engines(self):
        runner = TestRunner()
        results = runner.run_on_engines(
            "database-aggregate-join", ["dbms", "mapreduce"], 50
        )
        assert [result.engine for result in results] == ["dbms", "mapreduce"]

    def test_options_validation(self):
        with pytest.raises(ExecutionError):
            RunnerOptions(repeats=0)
        with pytest.raises(ExecutionError):
            RunnerOptions(warmup_runs=-1)

    def test_overrides_flow_through(self):
        runner = TestRunner()
        result = runner.run(
            "micro-grep", "mapreduce", 40, pattern_text=""
        )
        assert result.extra.get("jobs") == ["grep"]


class TestHarness:
    def test_volume_sweep_series(self):
        # Serial on purpose: the duration-grows assertion compares
        # wall-clock measurements, which pooled backends perturb with
        # per-worker warm-up and CPU contention.
        harness = BenchmarkHarness(
            TestRunner(options=RunnerOptions(executor="serial"))
        )
        report = harness.volume_sweep(
            "micro-wordcount", "mapreduce", [10, 40]
        )
        series = report.series("duration")
        assert len(series) == 2
        assert series[0][0] == 10
        # Larger volume → more work (duration grows).
        assert series[1][1] > series[0][1]

    def test_param_sweep(self):
        harness = BenchmarkHarness()
        report = harness.param_sweep(
            "oltp-read-write", "nosql", "operation_count", [50, 100]
        )
        assert [point.value for point in report.points] == [50, 100]

    def test_compare_engines_returns_analyzer(self):
        harness = BenchmarkHarness()
        analyzer = harness.compare_engines(
            "database-aggregate-join", ["dbms", "mapreduce"], 50
        )
        factors = analyzer.speedup(
            "duration", baseline_engine="mapreduce", higher_is_better=False
        )
        assert set(factors) == {"dbms", "mapreduce"}

    def test_configuration_sweep_restores_originals(self):
        harness = BenchmarkHarness()
        report = harness.configuration_sweep(
            "database-aggregate-join",
            "dbms",
            {
                "hash": SystemConfiguration("dbms", {"join_algorithm": "hash"}),
                "nested": SystemConfiguration(
                    "dbms", {"join_algorithm": "nested_loop"}
                ),
            },
            volume_override=50,
        )
        assert len(report.points) == 2
        # A swept configuration stays on its task: the next engine the
        # runner builds is the bare one again.
        bare = harness.runner._build_engine("dbms").planner.config
        assert bare == PlannerConfig()

    def test_sweep_rows(self):
        harness = BenchmarkHarness()
        report = harness.volume_sweep("micro-wordcount", "mapreduce", [10])
        rows = report.rows(["duration"])
        assert rows[0]["volume"] == 10
        assert "duration" in rows[0]


class TestReporting:
    def _results(self) -> list[RunResult]:
        runner = TestRunner()
        return [runner.run("micro-wordcount", "mapreduce", 15)]

    def test_ascii_table_aligns_columns(self):
        table = ascii_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_ascii_table_empty(self):
        assert ascii_table([]) == "(no rows)"

    def test_markdown_table_shape(self):
        table = markdown_table([{"x": 1}])
        lines = table.splitlines()
        assert lines[0] == "| x |"
        assert lines[1] == "|---|"

    def test_results_table_contains_metrics(self):
        text = render_results(
            self._results(), metrics=["duration", "throughput"]
        )
        assert "duration" in text
        assert "mapreduce" in text

    def test_results_json_roundtrips(self):
        payload = json.loads(render_results(self._results(), style="json"))
        assert payload[0]["engine"] == "mapreduce"
        assert "duration" in payload[0]["metrics"]

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(1234.0) == "1,234"
        assert format_value(0.25) == "0.25"
        assert format_value(1e-6) == "1.000e-06"
        assert format_value("txt") == "txt"

    def test_format_value_negative_floats(self):
        assert format_value(-2500.0) == "-2,500"
        assert format_value(-5.5) == "-5.5"
        assert format_value(-0.25) == "-0.25"
        assert format_value(-1e-6) == "-1.000e-06"

    def test_format_value_tiny_floats_use_scientific(self):
        # Values below the 0.001 fixed-point floor must not print as 0.
        assert format_value(0.0005) == "5.000e-04"
        assert format_value(0.000999) == "9.990e-04"
        assert format_value(0.001) == "0.001"
        assert format_value(0.0) == "0"


class TestRenderFacade:
    def _results(self) -> list[RunResult]:
        runner = TestRunner()
        return [runner.run("micro-wordcount", "mapreduce", 15)]

    def test_style_registry(self):
        assert RESULT_STYLES == ("ascii", "markdown", "json", "history")

    def test_unknown_style_rejected(self):
        with pytest.raises(ExecutionError):
            render_results([], style="html")

    def test_ascii_is_the_default_style(self):
        results = self._results()
        assert render_results(results, metrics=["duration"]) == render_results(
            results, style="ascii", metrics=["duration"]
        )

    def test_omitted_metrics_show_every_metric(self):
        results = self._results()
        table = render_results(results)
        for name in results[0].metrics:
            assert name in table

    def test_json_style_serializes_all_statistics(self):
        results = self._results()
        payload = json.loads(render_results(results, style="json"))
        stats = payload[0]["metrics"]["duration"]
        assert set(stats) == {
            "mean", "min", "max", "stdev", "p50", "p95", "p99"
        }


class TestTableEdgeCases:
    def test_explicit_column_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        table = ascii_table(rows, columns=["c", "a"])
        header = table.splitlines()[0]
        assert header.split(" | ") == ["c", "a"]
        assert "b" not in header

    def test_mixed_rows_union_columns_in_first_appearance_order(self):
        rows = [{"a": 1}, {"b": 2}, {"a": 3, "c": 4}]
        lines = ascii_table(rows).splitlines()
        assert [cell.strip() for cell in lines[0].split(" | ")] == [
            "a", "b", "c",
        ]
        # Missing cells render blank, not "None".
        assert "None" not in lines[2]

    def test_missing_cells_keep_alignment(self):
        table = ascii_table([{"a": 1, "b": 2}, {"a": 10}])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_markdown_empty_rows(self):
        assert markdown_table([]) == "(no rows)"

    def test_markdown_explicit_columns(self):
        table = markdown_table([{"a": 1, "b": 2}], columns=["b"])
        assert table.splitlines()[0] == "| b |"


class TestTraceRendering:
    def _forest(self) -> list[Span]:
        root = Span(
            "benchmark-run", attrs={"prescription": "micro-wordcount"},
            duration_seconds=1.0,
        )
        child = Span("execution", duration_seconds=0.5)
        child.children.append(
            Span("task", counters={"cache.hits": 2}, duration_seconds=0.25)
        )
        root.children.append(child)
        return [root]

    def test_empty_forest(self):
        assert render_trace([]) == "(no spans)"

    def test_tree_shows_names_durations_and_shares(self):
        text = render_trace(self._forest())
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("benchmark-run")
        assert "1000.000 ms" in lines[0]
        assert "100.0%" in lines[0]
        assert lines[1].startswith("  execution")
        assert "50.0%" in lines[1]
        assert lines[2].startswith("    task")

    def test_attrs_and_counters_render(self):
        text = render_trace(self._forest())
        assert "[prescription=micro-wordcount]" in text
        assert "cache.hits=2" in text

    def test_max_depth_prunes_the_tree(self):
        text = render_trace(self._forest(), max_depth=1)
        assert "task" not in text
        assert "execution" in text

    def test_zero_duration_root_has_no_share(self):
        text = render_trace([Span("instant", duration_seconds=0.0)])
        assert "%" not in text
