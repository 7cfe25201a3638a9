"""Tests for the ``repro.api`` facade."""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.core.errors import SpecError
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
