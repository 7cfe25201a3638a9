"""Tests for benchmark specs and result aggregation/analysis."""

from __future__ import annotations

import statistics

import pytest

import repro  # noqa: F401 - triggers default registration
from repro.core.errors import MetricError, SpecError
from repro.core.prescription import builtin_repository
from repro.core.results import MetricStats, ResultAnalyzer, RunResult
from repro.core.spec import (
    SPEC_VERSION,
    BenchmarkSpec,
    register_spec_migration,
)
from repro.engines.base import CostCounters
from repro.workloads.base import WorkloadResult


@pytest.fixture(scope="module")
def repository():
    return builtin_repository()


class TestBenchmarkSpec:
    def test_valid_spec_passes(self, repository):
        BenchmarkSpec("micro-wordcount", repeats=2).validate(repository)

    def test_unknown_prescription(self, repository):
        with pytest.raises(SpecError):
            BenchmarkSpec("nope").validate(repository)

    def test_negative_volume(self, repository):
        with pytest.raises(SpecError):
            BenchmarkSpec("micro-sort", volume=-5).validate(repository)

    def test_zero_repeats(self, repository):
        with pytest.raises(SpecError):
            BenchmarkSpec("micro-sort", repeats=0).validate(repository)

    def test_zero_partitions(self, repository):
        with pytest.raises(SpecError):
            BenchmarkSpec("micro-sort", data_partitions=0).validate(repository)

    def test_unknown_engine(self, repository):
        with pytest.raises(SpecError):
            BenchmarkSpec("micro-sort", engines=["spark"]).validate(repository)

    def test_unsupported_engine(self, repository):
        with pytest.raises(SpecError):
            BenchmarkSpec("micro-sort", engines=["dbms"]).validate(repository)

    def test_resolved_engines_default_to_supported(self, repository):
        spec = BenchmarkSpec("database-aggregate-join")
        assert sorted(spec.resolved_engines(repository)) == [
            "dbms", "mapreduce", "nosql",
        ]

    def test_resolved_engines_honours_explicit_list(self, repository):
        spec = BenchmarkSpec("database-aggregate-join", engines=["dbms"])
        assert spec.resolved_engines(repository) == ["dbms"]


class TestSpecVersioning:
    def test_as_dict_stamps_current_version(self):
        payload = BenchmarkSpec("micro-wordcount").as_dict()
        assert payload["spec_version"] == SPEC_VERSION

    def test_round_trip_is_identity(self):
        spec = BenchmarkSpec(
            "micro-sort", engines=["mapreduce"], volume=500,
            repeats=3, params={"seed": 7}, executor="thread",
            max_workers=2, on_error="continue", retries=1,
            task_timeout=5.0, record=True, store_dir="/tmp/x",
        )
        assert BenchmarkSpec.from_dict(spec.as_dict()) == spec

    def test_payload_copies_do_not_alias(self):
        spec = BenchmarkSpec("micro-sort", engines=["mapreduce"])
        payload = spec.as_dict()
        payload["engines"].append("nosql")
        payload["params"]["seed"] = 1
        assert spec.engines == ["mapreduce"]
        assert spec.params == {}

    def test_unversioned_payload_is_v1_and_migrates_engine_field(self):
        spec = BenchmarkSpec.from_dict(
            {"prescription": "micro-wordcount", "engine": "mapreduce",
             "volume": 120}
        )
        assert spec.engines == ["mapreduce"]
        assert spec.volume == 120

    def test_v1_bare_string_engines_migrates(self):
        spec = BenchmarkSpec.from_dict(
            {"prescription": "micro-wordcount", "engines": "mapreduce"}
        )
        assert spec.engines == ["mapreduce"]

    def test_future_version_rejected(self):
        with pytest.raises(SpecError, match="newer than this release"):
            BenchmarkSpec.from_dict(
                {"spec_version": SPEC_VERSION + 1,
                 "prescription": "micro-wordcount"}
            )

    def test_non_integer_version_rejected(self):
        with pytest.raises(SpecError, match="must be an integer"):
            BenchmarkSpec.from_dict(
                {"spec_version": "two", "prescription": "micro-wordcount"}
            )

    def test_unknown_field_rejected_after_migration(self):
        with pytest.raises(SpecError, match="unknown field"):
            BenchmarkSpec.from_dict(
                {"spec_version": SPEC_VERSION,
                 "prescription": "micro-wordcount", "vollume": 5}
            )

    def test_missing_prescription_rejected(self):
        with pytest.raises(SpecError, match="missing 'prescription'"):
            BenchmarkSpec.from_dict({"spec_version": SPEC_VERSION})

    def test_duplicate_migration_registration_rejected(self):
        with pytest.raises(SpecError, match="already registered"):
            register_spec_migration(1, lambda payload: payload)


class TestWarmPoolFieldRemoved:
    """v4 dropped ``warm_pool``; every payload an earlier release wrote
    (job logs, exported specs) still loads."""

    @pytest.mark.parametrize("warm_pool", [True, False])
    def test_v3_payload_with_warm_pool_loads_and_round_trips(self, warm_pool):
        spec = BenchmarkSpec.from_dict(
            {"spec_version": 3, "prescription": "micro-wordcount",
             "engines": ["mapreduce"], "volume": 50, "executor": "process",
             "warm_pool": warm_pool, "tuning": "optimized"}
        )
        assert spec.executor == "process"
        assert spec.tuning == "optimized"
        payload = spec.as_dict()
        assert payload["spec_version"] == SPEC_VERSION == 4
        assert "warm_pool" not in payload
        assert BenchmarkSpec.from_dict(payload) == spec

    def test_unversioned_payload_with_warm_pool_loads(self):
        spec = BenchmarkSpec.from_dict(
            {"prescription": "micro-wordcount", "engine": "mapreduce",
             "warm_pool": False}
        )
        assert spec.engines == ["mapreduce"]

    def test_v4_payload_with_warm_pool_is_an_unknown_field(self):
        with pytest.raises(SpecError, match="unknown field.*warm_pool"):
            BenchmarkSpec.from_dict(
                {"spec_version": 4, "prescription": "micro-wordcount",
                 "warm_pool": True}
            )


class TestTuningField:
    """v3 added ``tuning``; v2 payloads (and v1 before them) load as
    the ``normal`` profile — the bare engines they actually ran."""

    def test_default_is_normal(self):
        assert BenchmarkSpec("micro-wordcount").tuning == "normal"

    def test_v2_payload_migrates_to_normal(self):
        spec = BenchmarkSpec.from_dict(
            {"spec_version": 2, "prescription": "micro-wordcount",
             "engines": ["mapreduce"], "volume": 50}
        )
        assert spec.tuning == "normal"
        assert spec.volume == 50

    def test_v1_payload_migrates_through_the_chain(self):
        spec = BenchmarkSpec.from_dict(
            {"prescription": "micro-wordcount", "engine": "mapreduce"}
        )
        assert spec.engines == ["mapreduce"]
        assert spec.tuning == "normal"

    def test_v2_explicit_tuning_survives_migration(self):
        # A v2 payload cannot legally carry tuning (the field is v3),
        # but setdefault-based migration must not clobber one written
        # by a forward-porting tool.
        spec = BenchmarkSpec.from_dict(
            {"spec_version": 2, "prescription": "micro-wordcount",
             "tuning": "optimized"}
        )
        assert spec.tuning == "optimized"

    def test_round_trip_keeps_tuning(self):
        spec = BenchmarkSpec(
            "database-aggregate-join", engines=["dbms"], tuning="optimized"
        )
        payload = spec.as_dict()
        assert payload["spec_version"] == SPEC_VERSION
        assert payload["tuning"] == "optimized"
        assert BenchmarkSpec.from_dict(payload) == spec

    def test_validate_accepts_builtin_profiles(self, repository):
        BenchmarkSpec(
            "database-aggregate-join", engines=["dbms"], tuning="optimized"
        ).validate(repository)
        BenchmarkSpec(
            "database-aggregate-join", engines=["dbms"],
            tuning="normal+batch_size",
        ).validate(repository)

    def test_validate_rejects_unknown_profile(self, repository):
        with pytest.raises(SpecError, match="unknown tuning profile"):
            BenchmarkSpec(
                "micro-wordcount", tuning="hyperspeed"
            ).validate(repository)

    def test_validate_rejects_one_off_for_wrong_engine(self, repository):
        with pytest.raises(SpecError, match="no optimized knob"):
            BenchmarkSpec(
                "micro-wordcount", tuning="normal+batch_size"
            ).validate(repository)


def make_workload_result(duration: float, engine: str = "mapreduce") -> WorkloadResult:
    return WorkloadResult(
        workload="wl", engine=engine, output=None,
        records_in=100, records_out=100,
        duration_seconds=duration,
        cost=CostCounters(compute_ops=1000),
    )


class TestRunResult:
    def test_from_workload_results_aggregates(self):
        result = RunResult.from_workload_results(
            "t", [make_workload_result(1.0), make_workload_result(3.0)]
        )
        assert result.repeats == 2
        assert result.mean("duration") == pytest.approx(2.0)
        assert result.metric("duration").minimum == 1.0
        assert result.metric("duration").maximum == 3.0

    def test_empty_runs_rejected(self):
        with pytest.raises(MetricError):
            RunResult.from_workload_results("t", [])

    def test_unknown_metric_rejected(self):
        result = RunResult.from_workload_results("t", [make_workload_result(1.0)])
        with pytest.raises(MetricError):
            result.metric("tps")

    def test_stats_stdev(self):
        stats = MetricStats("m", [1.0, 3.0])
        assert stats.stdev == pytest.approx(1.4142, rel=1e-3)
        assert MetricStats("m", [1.0]).stdev == 0.0

    @pytest.mark.parametrize(
        "samples",
        [[0.25], [3], [0.0123, 0.0119, 0.0131], [5.0, 1.0, 4.0, 1.0],
         [1e-9, 1e9], list(range(101))],
        ids=len,
    )
    def test_as_dict_is_the_seven_summaries_read_one_by_one(self, samples):
        stats = MetricStats("m", list(samples))
        expected = {
            "mean": statistics.fmean(samples),
            "min": min(samples),
            "max": max(samples),
            "stdev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
            "p50": stats.percentile(50),
            "p95": stats.percentile(95),
            "p99": stats.percentile(99),
            "samples": list(samples),
        }
        for _ in range(2):  # the second read is the remembered stdev
            serialized = stats.as_dict()
            assert serialized == expected
            assert [type(v) for v in serialized.values()] == [
                type(v) for v in expected.values()
            ]

    def test_stdev_follows_the_samples(self):
        stats = MetricStats("m", [1.0, 3.0])
        assert stats.stdev == statistics.stdev([1.0, 3.0])
        stats.samples.append(8.0)
        assert stats.stdev == statistics.stdev([1.0, 3.0, 8.0])
        stats.samples[0] = 2.0
        assert stats.as_dict()["stdev"] == statistics.stdev([2.0, 3.0, 8.0])
        assert stats == MetricStats("m", [2.0, 3.0, 8.0])
        assert "stdev" not in repr(stats)

    def test_stdev_is_computed_once_per_metric(self, monkeypatch):
        calls = []
        exact = statistics.stdev
        monkeypatch.setattr(
            statistics, "stdev", lambda data: calls.append(1) or exact(data)
        )
        stats = MetricStats("m", [1.0, 3.0, 2.0])
        assert stats.as_dict() == stats.as_dict()
        assert stats.stdev == exact([1.0, 3.0, 2.0])
        assert len(calls) == 1


class TestResultAnalyzer:
    def _results(self):
        fast = RunResult.from_workload_results(
            "t@dbms", [make_workload_result(1.0, "dbms")]
        )
        slow = RunResult.from_workload_results(
            "t@mapreduce", [make_workload_result(4.0, "mapreduce")]
        )
        return [fast, slow]

    def test_ranking_lower_is_better(self):
        analyzer = ResultAnalyzer(self._results())
        ranked = analyzer.ranking("duration", higher_is_better=False)
        assert [result.engine for result in ranked] == ["dbms", "mapreduce"]

    def test_speedup_relative_to_baseline(self):
        analyzer = ResultAnalyzer(self._results())
        factors = analyzer.speedup(
            "duration", baseline_engine="mapreduce", higher_is_better=False
        )
        assert factors["dbms"] == pytest.approx(4.0)
        assert factors["mapreduce"] == pytest.approx(1.0)

    def test_speedup_unknown_baseline(self):
        analyzer = ResultAnalyzer(self._results())
        with pytest.raises(MetricError):
            analyzer.speedup("duration", baseline_engine="spark")

    def test_by_engine_groups(self):
        analyzer = ResultAnalyzer(self._results())
        assert set(analyzer.by_engine()) == {"dbms", "mapreduce"}

    def test_summary_rows(self):
        analyzer = ResultAnalyzer(self._results())
        rows = analyzer.summary_rows(["duration", "missing"])
        assert len(rows) == 2
        assert "duration" in rows[0]
        assert "missing" not in rows[0]
