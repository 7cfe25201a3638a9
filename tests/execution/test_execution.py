"""Tests for the execution layer: config, runner, sweeps, report."""

from __future__ import annotations

import json

import pytest

import repro  # noqa: F401 - triggers default registration
from repro import api
from repro.core.errors import ExecutionError
from repro.core.results import ResultAnalyzer, RunResult
from repro.engines.dbms import PlannerConfig
from repro.execution.config import SystemConfiguration
from repro.execution.report import (
    RESULT_STYLES,
    ascii_table,
    format_value,
    markdown_table,
    render_results,
    render_trace,
)
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Span
from tests._runs import run_on_engines, run_one


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


class TestRunnerBehaviour:
    def test_run_aggregates_repeats(self):
        runner = TestRunner(options=RunnerOptions(repeats=3))
        result = run_one(runner, "micro-wordcount", "mapreduce", 20)
        assert result.repeats == 3
        assert result.mean("throughput") > 0

    def test_warmup_runs_not_counted(self):
        runner = TestRunner(options=RunnerOptions(repeats=2, warmup_runs=1))
        result = run_one(runner, "micro-wordcount", "mapreduce", 15)
        assert result.repeats == 2

    def test_repeats_use_fresh_engines(self):
        """A stateful engine (DBMS) must not see tables from prior repeats."""
        runner = TestRunner(options=RunnerOptions(repeats=3))
        result = run_one(runner, "database-aggregate-join", "dbms", 60)
        assert result.repeats == 3  # would raise "table exists" otherwise

    def test_run_on_engines(self):
        results = run_on_engines(
            TestRunner(), "database-aggregate-join", ["dbms", "mapreduce"], 50
        )
        assert [result.engine for result in results] == ["dbms", "mapreduce"]

    def test_options_validation(self):
        with pytest.raises(ExecutionError):
            RunnerOptions(repeats=0)
        with pytest.raises(ExecutionError):
            RunnerOptions(warmup_runs=-1)

    def test_overrides_flow_through(self):
        result = run_one(
            TestRunner(), "micro-grep", "mapreduce", 40, pattern_text=""
        )
        assert result.extra.get("jobs") == ["grep"]


class TestEngineBuilds:
    """Engines are built exactly as often as they execute."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_each_execution_builds_one_engine(
        self, backend, tmp_path, monkeypatch
    ):
        """A task of W warmups and R repeats builds W + R engines: the
        one ``generate`` builds serves the first execution (there was
        one more, bare, that ran nothing)."""
        from repro.engines.mapreduce import MapReduceEngine

        built = tmp_path / "built"
        build = MapReduceEngine.__init__

        def counted(engine, *args, **kwargs):
            # A file, not a list: process workers (forked after the
            # patch) count here too.
            with built.open("a") as log:
                log.write("x")
            build(engine, *args, **kwargs)

        monkeypatch.setattr(MapReduceEngine, "__init__", counted)
        warmups, repeats = 2, 3
        options = RunnerOptions(
            warmup_runs=warmups, repeats=repeats, executor=backend,
            max_workers=2,
        )
        # Two tasks: a process batch of one runs inline.
        tasks = [
            RunTask("micro-wordcount", "mapreduce", volume)
            for volume in (20, 30)
        ]
        with TestRunner(options=options) as runner:
            outcomes = runner.run_many(tasks)
        assert all(outcome.ok for outcome in outcomes)
        assert len(built.read_text()) == len(tasks) * (warmups + repeats)


class TestHarness:
    """The sweep and comparison patterns: ``api.sweep`` and one spec on
    several engines."""

    def test_volume_sweep_series(self):
        report = api.sweep("micro-wordcount", "mapreduce", volumes=[10, 40])
        series = report.series("duration")
        assert len(series) == 2
        assert series[0][0] == 10
        # Larger volume → more work.  Wall time at these volumes is about
        # a millisecond and the first point pays a cold start, so the
        # growth is asserted on the cost the simulated cluster models
        # from task sizes, which repeats exactly on every backend.
        cost = report.series("cost")
        assert [volume for volume, _ in cost] == [10, 40]
        assert cost[1][1] > cost[0][1]
        again = api.sweep("micro-wordcount", "mapreduce", volumes=[10, 40])
        assert again.series("cost") == cost

    def test_param_sweep(self):
        report = api.sweep(
            "oltp-read-write", "nosql",
            parameter="operation_count", values=[50, 100],
        )
        assert [point.value for point in report.points] == [50, 100]

    def test_compare_engines_returns_analyzer(self):
        analyzer = ResultAnalyzer(
            run_on_engines(
                TestRunner(), "database-aggregate-join", ["dbms", "mapreduce"],
                50,
            )
        )
        factors = analyzer.speedup("duration", baseline_engine="mapreduce")
        assert set(factors) == {"dbms", "mapreduce"}

    def test_configuration_sweep_restores_originals(self):
        runner = TestRunner()
        configurations = [
            SystemConfiguration("dbms", {"join_algorithm": algorithm})
            for algorithm in ("hash", "nested_loop")
        ]
        results = runner.run_many(
            [
                RunTask("database-aggregate-join", "dbms", 50,
                        configuration=configuration)
                for configuration in configurations
            ]
        )
        assert all(result.ok for result in results)
        # A swept configuration stays on its task: the next engine the
        # runner builds is the bare one again.
        bare = runner.test_generator.build_engine("dbms").planner.config
        assert bare == PlannerConfig()

    def test_sweep_rows(self):
        report = api.sweep("micro-wordcount", "mapreduce", volumes=[10])
        rows = report.rows(["duration"])
        assert rows[0]["volume"] == 10
        assert "duration" in rows[0]


class TestReporting:
    def _results(self) -> list[RunResult]:
        return [run_one(TestRunner(), "micro-wordcount", "mapreduce", 15)]

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
        return [run_one(TestRunner(), "micro-wordcount", "mapreduce", 15)]

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
