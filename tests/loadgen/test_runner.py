"""Tests for the load runner (virtual and real clocks, both loops)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import LoadGenError, RequestShed
from repro.core.spec import BenchmarkSpec
from repro.loadgen import (
    LoadPlan,
    LoadRunner,
    LoadTarget,
    SLOPolicy,
    SyntheticTarget,
    load_fingerprint,
)


class FlakyTarget(LoadTarget):
    """Executes for real: every 3rd request sheds, every 5th errors."""

    name = "flaky"

    def execute(self, request_index: int) -> None:
        if request_index % 5 == 0:
            raise RuntimeError("boom")
        if request_index % 3 == 0:
            raise RequestShed("full")


class TestOpenLoopVirtual:
    def test_underloaded_run_completes_everything(self):
        report = LoadRunner(
            SyntheticTarget(mean_service=0.002), concurrency=4
        ).run(LoadPlan(rate=100.0, duration=2.0, seed=3))
        assert report.offered == report.completed
        assert report.shed == 0
        assert report.errors == 0
        assert len(report.latencies) == report.completed
        assert report.achieved_rate == pytest.approx(
            report.offered_rate, rel=0.01
        )

    def test_same_seed_same_verdict_and_measurements(self):
        """The ISSUE acceptance contract: same seed → same verdict."""

        def run():
            return LoadRunner(
                SyntheticTarget(mean_service=0.004), concurrency=2
            ).run(
                LoadPlan(rate=200.0, duration=4.0, seed=7),
                slo=SLOPolicy(p99_budget=0.05),
            )

        first, second = run(), run()
        assert first.latencies == second.latencies
        assert first.verdict == second.verdict
        assert first.summary() == second.summary()

    def test_different_seed_different_measurements(self):
        reports = [
            LoadRunner(SyntheticTarget(), concurrency=2).run(
                LoadPlan(rate=100.0, duration=2.0, seed=seed)
            )
            for seed in (1, 2)
        ]
        assert reports[0].latencies != reports[1].latencies

    def test_overload_sheds_and_bounds_queue_depth(self):
        capacity = 5
        report = LoadRunner(
            SyntheticTarget(mean_service=0.1, distribution="constant"),
            concurrency=1,
            queue_capacity=capacity,
        ).run(LoadPlan(arrival="constant", rate=100.0, duration=1.0))
        assert report.shed > 0
        assert report.queue_depth_max <= capacity
        assert report.offered == report.completed + report.shed
        # Shed requests leave no latency sample behind.
        assert len(report.latencies) == report.completed

    def test_latency_includes_queueing_delay(self):
        slow = LoadRunner(
            SyntheticTarget(mean_service=0.05, distribution="constant"),
            concurrency=1,
            queue_capacity=1000,
        ).run(LoadPlan(arrival="constant", rate=40.0, duration=1.0))
        stats = slow.latency_stats()
        # One server at 2× its capacity: the queue grows, so the tail
        # latency must far exceed the bare service time.
        assert stats.p99 > 0.05 * 4

    def test_executing_target_dispositions(self):
        report = LoadRunner(FlakyTarget(), concurrency=2).run(
            LoadPlan(arrival="constant", rate=30.0, duration=1.0)
        )
        assert report.offered == 30
        # index % 5 == 0 → error (6), else % 3 == 0 → shed (8).
        assert report.errors == 6
        assert report.shed == 8
        assert report.completed == 16

    def test_zero_queue_capacity_sheds_waiters(self):
        report = LoadRunner(
            SyntheticTarget(mean_service=0.5, distribution="constant"),
            concurrency=1,
            queue_capacity=0,
        ).run(LoadPlan(arrival="constant", rate=10.0, duration=1.0))
        # Server busy 0.5s per request; with no queue, arrivals landing
        # while a prior admitted request waits-or-runs are shed.
        assert report.shed > 0
        assert report.completed >= 1


class TestClosedLoopVirtual:
    def test_sessions_bound_concurrency_of_demand(self):
        report = LoadRunner(
            SyntheticTarget(mean_service=0.01, distribution="constant"),
            concurrency=4,
        ).run(LoadPlan(sessions=2, think_time=0.0, duration=1.0, seed=1))
        # 2 sessions back-to-back on 0.01s service ≈ 200 requests.
        assert report.offered == pytest.approx(200, abs=4)
        assert report.completed == report.offered

    def test_think_time_slows_demand(self):
        fast = LoadRunner(SyntheticTarget(), concurrency=4).run(
            LoadPlan(sessions=4, think_time=0.0, duration=1.0, seed=2)
        )
        slow = LoadRunner(SyntheticTarget(), concurrency=4).run(
            LoadPlan(sessions=4, think_time=0.1, duration=1.0, seed=2)
        )
        assert slow.offered < fast.offered

    def test_closed_loop_is_deterministic(self):
        def run():
            return LoadRunner(SyntheticTarget(), concurrency=2).run(
                LoadPlan(sessions=3, think_time=0.02, duration=2.0, seed=9)
            )

        assert run().summary() == run().summary()


class TestRealClock:
    def test_real_clock_paces_with_injected_sleep(self):
        sleeps: list[float] = []
        clock = {"now": 0.0}

        def fake_sleep(seconds: float) -> None:
            sleeps.append(seconds)
            clock["now"] += seconds

        runner = LoadRunner(
            SyntheticTarget(mean_service=1e-6),
            clock="real",
            concurrency=2,
            sleep=fake_sleep,
            time_source=lambda: clock["now"],
        )
        report = runner.run(
            LoadPlan(arrival="constant", rate=10.0, duration=1.0, seed=0)
        )
        assert report.offered == 10
        assert report.completed == 10
        # The dispatcher slept up to each arrival: the gaps sum to the
        # last arrival time (worker service sleeps add the rest).
        assert sum(sleeps) >= 0.9
        assert report.elapsed_seconds >= 1.0

    def test_real_clock_smoke_wall_time(self):
        report = LoadRunner(
            SyntheticTarget(mean_service=0.001),
            clock="real",
            concurrency=4,
        ).run(LoadPlan(arrival="poisson", rate=200.0, duration=0.2, seed=4))
        assert report.completed > 0
        assert report.error_fraction == 0.0
        assert all(latency >= 0 for latency in report.latencies)

    def test_unknown_clock_rejected(self):
        with pytest.raises(LoadGenError, match="unknown clock"):
            LoadRunner(SyntheticTarget(), clock="sundial")


class TestReportAndRecording:
    def test_run_result_carries_percentiles_and_verdict(self):
        report = LoadRunner(SyntheticTarget(), concurrency=2).run(
            LoadPlan(rate=100.0, duration=2.0, seed=5),
            slo=SLOPolicy(p95_budget=1.0),
        )
        result = report.as_run_result()
        assert result.test_name == "load:open-poisson"
        assert result.engine == "loadgen-virtual"
        stats = result.metric("latency")
        assert stats.p50 <= stats.p95 <= stats.p99
        assert result.extra["slo_verdict"]["passed"] is True
        assert result.metric("achieved_rate").mean > 0

    def test_recorded_into_run_store(self, tmp_path):
        from repro.analysis.store import RunStore

        store = RunStore(str(tmp_path))
        report = LoadRunner(SyntheticTarget(), concurrency=2).run(
            LoadPlan(rate=50.0, duration=1.0, seed=6),
            slo=SLOPolicy(),
            store=store,
        )
        assert report.record_id is not None
        record = store.get(report.record_id)
        assert record.test_name == "load:open-poisson"
        assert record.result["extra"]["slo_verdict"]["passed"] is True

    def test_same_plan_lands_in_one_series(self, tmp_path):
        from repro.analysis.store import RunStore

        store = RunStore(str(tmp_path))
        plan = LoadPlan(rate=50.0, duration=1.0, seed=6)
        records = [
            LoadRunner(SyntheticTarget(), concurrency=2)
            .run(plan, store=store)
            .record_id
            for _ in range(2)
        ]
        first, second = (store.get(r) for r in records)
        assert first.series == second.series

    def test_fingerprint_excludes_slo(self):
        plan = LoadPlan(rate=50.0, duration=1.0)
        payload = load_fingerprint(
            plan, "synthetic", clock="virtual", concurrency=2,
            queue_capacity=64,
        )
        assert payload["kind"] == "loadgen"
        assert "slo" not in str(payload)

    def test_tracing_counters(self):
        from repro.observability import Tracer

        tracer = Tracer()
        LoadRunner(
            SyntheticTarget(), concurrency=2, tracer=tracer
        ).run(LoadPlan(rate=50.0, duration=1.0, seed=2))
        roots = tracer.roots()
        assert len(roots) == 1
        span = roots[0]
        assert span.name == "load"
        assert span.counters["load.offered"] > 0
        assert span.counters["load.completed"] > 0

    def test_latency_stats_requires_completions(self):
        report = LoadRunner(SyntheticTarget(), concurrency=1).run(
            LoadPlan(rate=50.0, duration=1.0)
        )
        report.latencies.clear()
        with pytest.raises(LoadGenError, match="no latencies"):
            report.latency_stats()


class TestPlanValidation:
    def test_invalid_plans_rejected(self):
        runner = LoadRunner(SyntheticTarget())
        for plan in (
            LoadPlan(arrival="sawtooth"),
            LoadPlan(rate=0.0),
            LoadPlan(duration=0.0),
            LoadPlan(sessions=-1),
            LoadPlan(think_time=-0.5),
        ):
            with pytest.raises(LoadGenError):
                runner.run(plan)

    @pytest.mark.parametrize(
        "fields",
        [
            {"rate": float("nan")},
            {"rate": float("inf")},
            {"duration": float("nan")},
            {"duration": float("inf")},
            {"sessions": 2, "duration": float("inf")},
            {"sessions": 2, "think_time": float("nan")},
            {"sessions": 2, "think_time": float("inf")},
        ],
    )
    def test_non_finite_plans_rejected(self, fields):
        # Validated directly: run() would hang on the closed-loop cases
        # if the check regressed.
        with pytest.raises(LoadGenError, match="finite"):
            LoadPlan(**fields).validate()

    def test_invalid_runner_configuration(self):
        with pytest.raises(LoadGenError):
            LoadRunner(SyntheticTarget(), concurrency=0)
        with pytest.raises(LoadGenError):
            LoadRunner(SyntheticTarget(), queue_capacity=-1)


class TestTargets:
    def test_workload_target_serves_real_requests(self):
        from repro.loadgen import WorkloadTarget

        report = LoadRunner(
            WorkloadTarget(BenchmarkSpec("micro-wordcount", volume=30)),
            concurrency=2,
        ).run(LoadPlan(rate=20.0, duration=0.5, seed=1))
        assert report.completed > 0
        assert report.error_fraction == 0.0
        assert report.target_name.startswith("workload:micro-wordcount@")

    @pytest.mark.parametrize(
        "prescription, engine, layout",
        [
            ("database-aggregate-join", "dbms", "columnar"),
            ("database-aggregate-join", "dbms", "row"),
            ("database-aggregate-join", None, "row"),
            ("micro-wordcount", "mapreduce", "columnar"),
        ],
    )
    def test_workload_target_binds_the_engine_api_run_builds(
        self, monkeypatch, prescription, engine, layout
    ):
        from repro import api
        from repro.loadgen import WorkloadTarget
        from repro.workloads.base import Workload

        def built(engine):
            return (
                type(engine),
                getattr(engine, "execution_layout", None),
                getattr(getattr(engine, "planner", None), "config", None),
                getattr(getattr(engine, "cluster_model", None), "spec", None),
            )

        engines = []
        original = Workload.run

        def recorded(self, engine, dataset, **params):
            engines.append(built(engine))
            return original(self, engine, dataset, **params)

        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setattr(Workload, "run", recorded)
        api.run(
            prescription, engines=[engine] if engine else [], volume=40,
            layout=layout,
        )
        monkeypatch.setattr(Workload, "run", original)
        target = WorkloadTarget(
            BenchmarkSpec(
                prescription, engines=[engine] if engine else [], volume=40,
                layout=layout,
            )
        )
        target.setup()
        try:
            # No engine named: the first engine api.run resolves.
            assert built(target._test.engine) == engines[0]
        finally:
            target.teardown()

    def test_workload_target_refuses_a_bad_request(self):
        from repro.core.errors import SpecError
        from repro.loadgen import WorkloadTarget

        for target in (
            WorkloadTarget(BenchmarkSpec("micro-wordcount", engines=["dbms"])),
            WorkloadTarget(
                BenchmarkSpec("micro-wordcount", params={"engine": "x"})
            ),
        ):
            with pytest.raises(SpecError):
                target.setup()

    def test_service_target_drives_the_orchestrator(self, tmp_path):
        from repro.loadgen import ServiceTarget

        report = LoadRunner(
            ServiceTarget(store_dir=str(tmp_path)), concurrency=2
        ).run(
            LoadPlan(arrival="constant", rate=5.0, duration=1.0, seed=2),
            slo=SLOPolicy(min_rate_fraction=0.5, p99_budget=30.0),
        )
        assert report.completed > 0
        assert report.verdict is not None
        assert report.target_name == "service:micro-wordcount"

    def test_synthetic_target_validation(self):
        with pytest.raises(LoadGenError):
            SyntheticTarget(mean_service=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(LoadGenError, match="finite"):
                SyntheticTarget(mean_service=value)
            with pytest.raises(LoadGenError, match="finite"):
                SyntheticTarget(sigma=value)
        with pytest.raises(LoadGenError):
            SyntheticTarget(distribution="bimodal")

    def test_synthetic_lognormal_mean_matches_knob(self):
        target = SyntheticTarget(mean_service=0.01)
        rng = np.random.default_rng(0)
        draws = [target.service_time(i, rng) for i in range(20000)]
        assert np.mean(draws) == pytest.approx(0.01, rel=0.05)
