"""Tests for the ``repro.api`` facade."""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.core.errors import AnalysisError, SpecError
from repro.core.results import RunResult


class TestFacadeSurface:
    def test_blessed_names_are_importable_from_the_top(self):
        # The facade re-exports from repro/__init__.py: one import
        # serves both `from repro.api import run` and `repro.run`.
        for name in ("BenchmarkSpec", "run", "sweep", "ServiceClient",
                     "compare", "gate", "serve", "api"):
            assert hasattr(repro, name), name
            assert name in repro.__all__
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_run_accepts_a_name(self):
        report = api.run("micro-wordcount", volume=80,
                         engines=["mapreduce"])
        assert len(report.results) == 1
        assert report.results[0].engine == "mapreduce"

    def test_run_accepts_a_spec(self):
        report = api.run(
            api.BenchmarkSpec("micro-wordcount", volume=80,
                              engines=["mapreduce"], repeats=2)
        )
        result = report.results[0]
        assert len(result.metrics["duration"].samples) == 2

    def test_sweep_volume_axis(self):
        report = api.sweep("micro-wordcount", "mapreduce",
                           volumes=[40, 80])
        assert report.parameter == "volume"
        assert [point.value for point in report.points] == [40, 80]

    def test_sweep_requires_exactly_one_axis(self):
        with pytest.raises(SpecError, match="exactly one axis"):
            api.sweep("micro-wordcount", "mapreduce")
        with pytest.raises(SpecError, match="exactly one axis"):
            api.sweep("micro-wordcount", "mapreduce",
                      volumes=[40], parameter="seed", values=[1])

    @pytest.mark.parametrize(
        "axes",
        [
            {"volumes": [20], "parameter": "num_reduce_tasks"},
            {"volumes": [20], "values": [1, 2]},
            {"parameter": "num_reduce_tasks"},
            {"values": [1, 2]},
        ],
    )
    def test_sweep_refuses_a_second_or_half_axis(self, axes):
        with pytest.raises(SpecError, match="exactly one axis"):
            api.sweep("micro-wordcount", "mapreduce", **axes)

    def test_sweep_points_are_validated_specs(self):
        with pytest.raises(SpecError, match="does not support"):
            api.sweep("micro-wordcount", "dbms", volumes=[20])
        with pytest.raises(SpecError, match="argument names"):
            api.sweep("micro-wordcount", "mapreduce", volumes=[20],
                      dataset=5)

    @pytest.mark.parametrize("field", [
        "retry_backoff", "task_timeout", "inject_latency",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_run_refuses_a_policy_value_that_is_not_finite(self, field, value):
        """``inf`` used to end in an ``OverflowError`` mid-run, ``nan``
        in a ``ValueError``, in a NaN ``duration``, or in no backoff."""
        with pytest.raises(SpecError, match=f"^{field} must be finite"):
            api.run("micro-wordcount", volume=20, **{field: value})

    def test_compare_and_gate_round_trip(self, tmp_path):
        store_dir = str(tmp_path)
        for _ in range(2):
            api.run("micro-wordcount", volume=80, engines=["mapreduce"],
                    repeats=2, record=True, store_dir=store_dir)
        comparison = api.compare("r0001", "r0002", store_dir=store_dir)
        assert comparison.baseline == "r0001"
        assert comparison.candidate == "r0002"

        from repro.analysis.baselines import BaselineManager
        from repro.analysis.store import RunStore

        BaselineManager(RunStore(tmp_path)).promote("r0001", "main")
        report = api.gate("main", "r0002", store_dir=store_dir)
        assert report.exit_code in (0, 1)

    def test_compare_reads_the_store_once(self, tmp_path, monkeypatch):
        """Both references resolve from one pass over ``runs.jsonl``
        (each ``RunStore.get`` used to read the whole file)."""
        from repro.analysis.store import RunStore
        from repro.core.appendlog import AppendLog

        store_dir = str(tmp_path)
        for _ in range(3):
            api.run("micro-wordcount", volume=40, engines=["mapreduce"],
                    record=True, store_dir=store_dir)
        recorded = RunStore(tmp_path).records()
        passes = []
        lines = AppendLog.lines

        def counted(log):
            passes.append(log.path)
            return lines(log)

        monkeypatch.setattr(AppendLog, "lines", counted)
        for baseline, candidate, expected, reads in [
            ("r0001", "latest", ("r0001", "r0003"), 1),
            ("r0002", recorded[2].series, ("r0002", "r0003"), 1),
            (recorded[0], "r0002", ("r0001", "r0002"), 1),
            (recorded[0], recorded[1], ("r0001", "r0002"), 0),
        ]:
            passes.clear()
            comparison = api.compare(baseline, candidate, store_dir=store_dir)
            assert (comparison.baseline, comparison.candidate) == expected
            assert len(passes) == reads
        passes.clear()
        with pytest.raises(AnalysisError, match="ambiguous"):
            api.compare("r0001", "r000", store_dir=store_dir)
        assert len(passes) == 1

    def test_serve_returns_a_service_client(self, tmp_path):
        with api.serve(store_dir=str(tmp_path)) as client:
            assert isinstance(client, api.ServiceClient)
            outcomes = client.submit(
                api.BenchmarkSpec("micro-wordcount", volume=60,
                                  engines=["mapreduce"])
            ).result(timeout=60)
        assert all(isinstance(o, RunResult) for o in outcomes)


class TestLoadFacade:
    def test_load_is_a_blessed_name(self):
        assert "load" in api.__all__
        assert hasattr(repro, "load")

    def test_synthetic_load_returns_a_judged_report(self):
        report = api.load(
            rate=100.0, duration=2.0, seed=4,
            slo=api.SLOPolicy(p99_budget=0.5),
        )
        assert report.verdict is not None
        assert report.verdict.passed
        assert report.completed > 0
        assert report.latency_stats().p50 > 0

    def test_load_records_when_asked(self, tmp_path):
        report = api.load(
            rate=50.0, duration=1.0, record=True,
            store_dir=str(tmp_path / "store"),
        )
        assert report.record_id is not None
        store = api.RunStore(str(tmp_path / "store"))
        assert store.get(report.record_id).test_name == "load:open-poisson"

    def test_load_against_a_prescribed_workload(self):
        report = api.load(
            "micro-wordcount", rate=10.0, duration=0.5, volume=30,
        )
        assert report.completed > 0
        assert report.target_name.startswith("workload:micro-wordcount@")

    def test_service_load_carries_every_spec_argument(
        self, tmp_path, monkeypatch
    ):
        """``service=True`` used to rebuild a default spec from the
        prescription name, dropping engine, volume, params and layout."""
        from repro.service.jobs import JobLog
        from repro.service.orchestrator import Orchestrator

        outcomes = []
        execute = Orchestrator._execute

        def spy(self, spec):
            executed = execute(self, spec)
            outcomes.extend(executed)
            return executed

        monkeypatch.setattr(Orchestrator, "_execute", spy)
        report = api.load(
            "database-aggregate-join", service=True, engine="dbms",
            volume=60, params={"seed": 3}, layout="columnar",
            rate=10.0, duration=0.3, store_dir=str(tmp_path),
        )
        assert report.completed > 0
        assert report.errors == 0
        assert outcomes
        for outcome in outcomes:
            assert outcome.engine == "dbms"
            assert outcome.extra["layout"] == "columnar"
        for job in JobLog(str(tmp_path)).replay().values():
            assert job.spec.engines == ["dbms"]
            assert job.spec.volume == 60
            assert job.spec.params == {"seed": 3}
            assert job.spec.layout == "columnar"

    def test_service_load_resolves_in_the_callers_repository(
        self, tmp_path
    ):
        """``service=True`` used to resolve against the built-in
        repository, so a prescription only the caller's repository holds
        failed every request (0 completed, ``error_fraction`` 1.0)."""
        import dataclasses

        from repro.core.prescription import (
            PrescriptionRepository,
            builtin_repository,
        )

        repository = PrescriptionRepository()
        repository.add(
            dataclasses.replace(
                builtin_repository().get("micro-wordcount"),
                name="my-wordcount",
            )
        )
        for service in (False, True):
            report = api.load(
                "my-wordcount", service=service, repository=repository,
                volume=30, rate=10.0, duration=0.3,
                store_dir=str(tmp_path),
            )
            assert report.completed > 0, service
            assert report.errors == 0, service

    def test_arrival_options_pass_through(self):
        report = api.load(
            arrival="diurnal", rate=100.0, duration=2.0, period=2.0,
            amplitude=0.5,
        )
        assert report.plan.arrival_options == {
            "period": 2.0, "amplitude": 0.5,
        }
        assert report.completed > 0


class TestAblateFacade:
    def test_ablate_is_a_blessed_name(self):
        assert "ablate" in api.__all__
        assert hasattr(repro, "ablate")

    def test_ablate_returns_a_judged_report(self, tmp_path):
        report = api.ablate(
            "relational", "dbms", repeats=2, volume=60,
            include_one_offs=False, store_dir=str(tmp_path),
        )
        executed = [cell for cell in report.cells if cell.supported]
        assert {cell.profile.name for cell in executed} == {
            "normal", "optimized",
        }
        assert all(cell.record_id for cell in executed)
        verdict = report.verdict_for(
            "database-aggregate-join", "dbms", "optimized"
        )
        assert verdict.verdict in (
            "improved", "regressed", "unchanged", "inconclusive",
        )


def _evidence(result) -> tuple:
    """What a workload run reports beside wall-clock time."""
    return (
        result.records_in,
        result.records_out,
        result.cost.snapshot(),
        result.simulated_seconds,
    )


#: Metrics that do not depend on wall-clock time, per engine.
DETERMINISTIC_METRICS = {
    "mapreduce": [
        "throughput", "ops_per_second", "data_rate",
        "network_rate", "energy", "cost",
    ],
    "nosql": ["throughput", "mean_latency", "latency_p95", "latency_p99"],
    "dbms": [],
}


class TestSweepPointsAreRuns:
    """A sweep point is ``api.run`` of its one-engine spec."""

    @pytest.mark.parametrize(
        "prescription, engine, axis, layout",
        [
            ("micro-wordcount", "mapreduce", {"volumes": [40, 80]}, "row"),
            ("micro-wordcount", "mapreduce",
             {"parameter": "num_reduce_tasks", "values": [1, 3]}, "row"),
            ("oltp-read-write", "nosql",
             {"parameter": "operation_count", "values": [50, 100]}, "row"),
            ("database-aggregate-join", "dbms", {"volumes": [60]}, "columnar"),
        ],
    )
    def test_each_point_equals_the_run_of_its_spec(
        self, monkeypatch, prescription, engine, axis, layout
    ):
        from repro.workloads.base import Workload

        ran = []
        original = Workload.run

        def recorded(self, engine, dataset, **params):
            result = original(self, engine, dataset, **params)
            ran.append(_evidence(result))
            return result

        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setattr(Workload, "run", recorded)
        report = api.sweep(prescription, engine, layout=layout, **axis)
        swept = list(ran)
        ran.clear()
        runs = []
        for point in report.points:
            by_volume = report.parameter == "volume"
            spec = api.BenchmarkSpec(
                prescription,
                engines=[engine],
                volume=point.value if by_volume else None,
                params={} if by_volume else {report.parameter: point.value},
                layout=layout,
            )
            [result] = api.run(spec).results
            runs.append(result)
        assert swept == ran
        for point, result in zip(report.points, runs):
            assert point.result.extra.get("layout") == result.extra.get("layout")
            for name in DETERMINISTIC_METRICS[engine]:
                assert point.result.mean(name) == result.mean(name), name
