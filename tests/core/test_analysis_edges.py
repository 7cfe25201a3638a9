"""Edge cases of ResultAnalyzer, a report's outcome split, and result
round-trips.

The result-analysis subsystem leans on these behaviors: the analyzer
must degrade gracefully on empty and all-failed batches, percentiles
must be honest at tiny sample counts, and the serialized forms must
round-trip ``status`` so a stored failure never comes back as ok.
"""

from __future__ import annotations

import pytest

from repro.core.errors import MetricError
from repro.core.process import ProcessReport
from repro.core.results import (
    MetricStats,
    ResultAnalyzer,
    RunResult,
    TaskFailure,
)
from repro.core.spec import BenchmarkSpec


def make_result(engine="mapreduce", samples=(1.0, 1.1, 0.9)):
    return RunResult(
        test_name=f"t@{engine}",
        workload="w",
        engine=engine,
        repeats=len(samples),
        metrics={"duration": MetricStats("duration", list(samples))},
    )


def make_failure(engine="dbms"):
    return TaskFailure(
        test_name=f"t@{engine}",
        workload="w",
        engine=engine,
        error_type="EngineError",
        error_message="boom",
        attempts=3,
    )


def split(outcomes):
    report = ProcessReport(BenchmarkSpec("micro-wordcount"), outcomes=outcomes)
    return report.results, report.failures


class TestSplitOutcomes:
    """``ProcessReport.results`` / ``.failures`` over its ``outcomes``."""

    def test_empty_list(self):
        assert split([]) == ([], [])

    def test_all_failed_batch(self):
        failures = [make_failure(), make_failure("nosql")]
        results, split_failures = split(failures)
        assert results == []
        assert split_failures == failures

    def test_mixed_batch_preserves_both_sides(self):
        outcomes = [make_result(), make_failure(), make_result("nosql")]
        results, failures = split(outcomes)
        assert [r.engine for r in results] == ["mapreduce", "nosql"]
        assert [f.engine for f in failures] == ["dbms"]


class TestResultAnalyzerEdges:
    def test_empty_analyzer_degrades_gracefully(self):
        analyzer = ResultAnalyzer([])
        assert analyzer.results == []
        assert analyzer.by_engine() == {}
        assert analyzer.ranking("duration") == []
        assert analyzer.summary_rows(["duration"]) == []
        with pytest.raises(MetricError, match="no results for baseline"):
            analyzer.speedup("duration", "mapreduce")

    def test_all_failed_batch_analyzes_as_empty(self):
        analyzer = ResultAnalyzer([make_failure(), make_failure("nosql")])
        assert analyzer.results == []
        assert analyzer.ranking("duration") == []

    def test_mixed_batch_considers_successes_only(self):
        analyzer = ResultAnalyzer(
            [make_result(), make_failure(), make_result("nosql", (2.0,))]
        )
        assert sorted(analyzer.by_engine()) == ["mapreduce", "nosql"]
        ranking = analyzer.ranking("duration")
        assert [r.engine for r in ranking] == ["mapreduce", "nosql"]

    def test_single_repeat_runs_rank_and_summarize(self):
        analyzer = ResultAnalyzer(
            [make_result(samples=(1.0,)), make_result("nosql", (2.0,))]
        )
        factors = analyzer.speedup("duration", "mapreduce")
        assert factors["nosql"] == pytest.approx(0.5)
        rows = analyzer.summary_rows(["duration"])
        assert [row["repeats"] for row in rows] == [1, 1]


class TestPercentileEdges:
    def test_single_sample_is_every_percentile(self):
        stats = MetricStats("duration", [4.2])
        assert stats.p50 == stats.p95 == stats.p99 == 4.2
        assert stats.stdev == 0.0

    def test_small_sample_interpolates_instead_of_fabricating_a_tail(self):
        stats = MetricStats("duration", [1.0, 2.0, 3.0])
        assert stats.p50 == 2.0
        # p99 of 3 repeats lands near the max, not beyond it.
        assert 2.9 < stats.p99 <= 3.0
        assert stats.percentile(0) == 1.0
        assert stats.percentile(100) == 3.0

    def test_out_of_range_and_empty_raise(self):
        stats = MetricStats("duration", [1.0])
        with pytest.raises(MetricError, match="percentile"):
            stats.percentile(101)
        with pytest.raises(MetricError, match="no samples"):
            MetricStats("duration", []).percentile(50)


class TestStatusRoundTrip:
    def test_run_result_round_trips_status_and_samples(self):
        result = make_result()
        clone = RunResult.from_dict(result.as_dict())
        assert clone.status == "ok"
        assert clone.ok
        assert clone.metrics["duration"].samples == [1.0, 1.1, 0.9]
        assert clone.repeats == 3

    def test_non_ok_status_survives_the_round_trip(self):
        result = make_result()
        result.status = "degraded"
        clone = RunResult.from_dict(result.as_dict())
        assert clone.status == "degraded"
        assert not clone.ok

    def test_summary_only_payload_reconstructs_from_mean(self):
        stats = MetricStats.from_dict("duration", {"mean": 2.5})
        assert stats.samples == [2.5]
