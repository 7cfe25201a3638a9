"""Tests for the parallel execution layer.

Covers the executor abstraction itself (ordering, validation), backend
parity — thread and process fan-out must reproduce the serial path's
deterministic metrics exactly — and the configuration-sweep isolation
guarantee.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ExecutionError
from repro.core.metrics import Metric, MetricKind, MetricSuite
from repro.core.prescription import Prescription
from repro.execution.config import SystemConfiguration
from repro.execution.harness import BenchmarkHarness
from repro.execution.parallel import (
    EXECUTOR_BACKENDS,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Tracer

ENGINES = ["dbms", "mapreduce", "nosql"]
PRESCRIPTION = "database-aggregate-join"

#: Metrics that do not depend on wall-clock time, per engine: mapreduce
#: metrics derive from the simulated cluster makespan, nosql metrics
#: from the store's seeded latency model.  Every dbms metric is
#: wall-clock based, so it has no deterministic subset to compare.
DETERMINISTIC_METRICS = {
    "mapreduce": [
        "throughput", "ops_per_second", "data_rate",
        "network_rate", "energy", "cost",
    ],
    "nosql": ["throughput", "mean_latency", "latency_p95", "latency_p99"],
    "dbms": [],
}


def _square(value: int) -> int:  # module level: picklable for "process"
    return value * value


def _metric_means(results) -> dict[tuple[str, str], float]:
    means = {}
    for result in results:
        for name in DETERMINISTIC_METRICS[result.engine]:
            if name in result.metrics:
                means[(result.engine, name)] = result.mean(name)
    return means


class TestResolveExecutor:
    def test_backend_registry(self):
        assert EXECUTOR_BACKENDS == ("serial", "thread", "process")

    def test_named_backends(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        # WorkerPool is the process transport; what stays in-process
        # on that backend is a batch of one, run inline.
        assert isinstance(resolve_executor("process"), SerialExecutor)

    def test_none_means_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError):
            resolve_executor("spark-cluster")


class TestExecutorOrdering:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_results_in_submission_order(self, backend):
        with resolve_executor(backend, max_workers=4) as executor:
            results = executor.map(lambda x: x * x, list(range(25)))
        assert results == [x * x for x in range(25)]

    def test_process_results_in_submission_order(self):
        # Inline on this backend: batches of more than one task are
        # WorkerPool's (tests/execution/test_workers.py).
        with resolve_executor("process", max_workers=2) as executor:
            results = executor.map(_square, list(range(8)))
        assert results == [x * x for x in range(8)]

    def test_empty_input(self):
        with resolve_executor("thread") as executor:
            assert executor.map(lambda x: x, []) == []

    def test_single_item_short_circuits_pool_creation(self):
        with resolve_executor("thread") as executor:
            assert executor.map(lambda x: x + 1, [41]) == [42]
            assert executor._pool is None

    def test_worker_exception_propagates(self):
        def explode(value):
            raise RuntimeError(f"boom {value}")

        with resolve_executor("thread") as executor:
            with pytest.raises(RuntimeError):
                executor.map(explode, [1, 2, 3])


class TestRunnerOptionsValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ExecutionError):
            RunnerOptions(executor="gpu")

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ExecutionError):
            RunnerOptions(max_workers=0)

    def test_defaults_are_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        options = RunnerOptions()
        assert options.executor == "serial"
        assert options.max_workers is None

    def test_executor_default_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert RunnerOptions().executor == "thread"


class TestBackendParity:
    """Thread and process fan-out must be drop-in replacements: same
    engines in the same order, identical deterministic metric means."""

    @pytest.fixture(scope="class")
    def serial_results(self):
        with TestRunner(options=RunnerOptions(executor="serial")) as runner:
            return runner.run_on_engines(PRESCRIPTION, ENGINES, 60)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_run_on_engines_matches_serial(self, backend, serial_results):
        options = RunnerOptions(executor=backend, max_workers=2)
        with TestRunner(options=options) as runner:
            results = runner.run_on_engines(PRESCRIPTION, ENGINES, 60)
        assert [r.engine for r in results] == [r.engine for r in serial_results]
        assert _metric_means(results) == _metric_means(serial_results)

    def test_serial_results_carry_cache_stats(self, serial_results):
        for result in serial_results:
            stats = result.extra["dataset_cache"]
            assert stats["misses"] == 1
            assert stats["hits"] == len(ENGINES) - 1

    def test_volume_sweep_thread_matches_serial(self):
        volumes = [20, 40, 60]
        serial = BenchmarkHarness(
            TestRunner(options=RunnerOptions(executor="serial"))
        ).volume_sweep("micro-wordcount", "mapreduce", volumes)
        with TestRunner(
            options=RunnerOptions(executor="thread", max_workers=2)
        ) as runner:
            threaded = BenchmarkHarness(runner).volume_sweep(
                "micro-wordcount", "mapreduce", volumes
            )
        assert [point.value for point in threaded.points] == volumes
        assert threaded.series("throughput") == serial.series("throughput")


class _RecordsInMetric(Metric):
    """Module-level (picklable) custom metric for suite-shipping tests."""

    name = "records_in"
    kind = MetricKind.ARCHITECTURE
    unit = "records"

    def compute(self, evidence):
        return float(evidence.records_in)


def _extended_suite() -> MetricSuite:
    return MetricSuite(MetricSuite.standard().metrics + [_RecordsInMetric()])


class TestProcessPayloads:
    """What crosses the process boundary: the pool initializer built by
    ``_worker_init`` (suite, configuration table) and each task's
    shipped prescription."""

    def test_picklable_prescription_ships_by_value(self):
        import dataclasses

        runner = TestRunner()
        builtin = runner.test_generator.repository.get("micro-wordcount")
        custom = dataclasses.replace(
            builtin, data=dataclasses.replace(builtin.data, volume=7)
        )
        shipped = runner._shipped_task_prescription(
            RunTask(custom, "mapreduce")
        )
        assert isinstance(shipped, Prescription)
        assert shipped is custom

    def test_unpicklable_prescription_ships_by_name(self):
        # Iterative prescriptions hold stopping-condition callables that
        # cannot cross a process boundary.
        runner = TestRunner()
        shipped = runner._shipped_task_prescription(
            RunTask("search-pagerank", "mapreduce")
        )
        assert shipped == "search-pagerank"

    def test_picklable_suite_ships_by_value(self):
        runner = TestRunner(suite=_extended_suite())
        init, _ = runner._worker_init()
        assert init.suite is runner.suite

    def test_unpicklable_suite_falls_back_to_standard(self):
        class LocalMetric(Metric):  # local class: cannot pickle instances
            name = "local"

            def compute(self, evidence):
                return 1.0

        options = RunnerOptions(executor="process", max_workers=2)
        with TestRunner(
            options=options, suite=MetricSuite([LocalMetric()])
        ) as runner:
            init, _ = runner._worker_init()
            assert init.suite is None
            results = runner.run_on_engines(PRESCRIPTION, ENGINES[:2], 60)
        # The workers computed the standard suite instead.
        for result in results:
            assert "local" not in result.metrics
            assert "duration" in result.metrics

    def test_custom_suite_survives_the_process_boundary(self):
        """Workers must compute the runner's suite, not silently revert
        to the standard one (the historical bug)."""
        options = RunnerOptions(executor="process", max_workers=2)
        with TestRunner(options=options, suite=_extended_suite()) as runner:
            results = runner.run_on_engines(PRESCRIPTION, ENGINES[:2], 60)
        with TestRunner(suite=_extended_suite()) as serial_runner:
            serial = serial_runner.run_on_engines(PRESCRIPTION, ENGINES[:2], 60)
        for result, expected in zip(results, serial):
            assert "records_in" in result.metrics
            # records_in counts dataset records — deterministic, so the
            # worker's value must equal the serial path's exactly.
            assert result.mean("records_in") == expected.mean("records_in")


class TestTracedBackends:
    """Tracing must see through every executor backend identically:
    one ``task`` span per submission (in order), queue-wait recorded,
    the full ``run`` tree beneath, and cache counters inside."""

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_task_span_trees_match_the_serial_shape(self, backend):
        tracer = Tracer()
        options = RunnerOptions(executor=backend, max_workers=2)
        with TestRunner(options=options) as runner, tracer.activate():
            results = runner.run_on_engines(PRESCRIPTION, ENGINES, 60)
        roots = tracer.roots()
        assert [root.name for root in roots] == ["task"] * len(ENGINES)
        assert [root.attrs["engine"] for root in roots] == ENGINES
        for index, root in enumerate(roots):
            assert root.attrs["index"] == index
            assert root.attrs["queue_wait_seconds"] >= 0.0
            (run_span,) = root.children
            assert run_span.name == "run"
            child_names = [child.name for child in run_span.children]
            assert child_names[0] == "test-generation"
            assert child_names.count("repeat") == 1
            # Phase durations nest consistently: children fit inside
            # their parent (small float tolerance).
            assert sum(
                child.duration_seconds for child in run_span.children
            ) <= run_span.duration_seconds + 1e-6
            assert run_span.duration_seconds <= root.duration_seconds + 1e-6
        # The dataset cache recorded hit/miss counters somewhere in each
        # tree (the parent cache for serial/thread, the worker's own for
        # process — either way the counters must be present).
        for root in roots:
            counters: set[str] = set()
            for span in root.walk():
                counters.update(span.counters)
            assert counters & {"cache.hits", "cache.misses"}
        # The compact summary stays in the result payload; the raw trees
        # were popped when they were grafted.
        for result in results:
            assert "trace" not in result.extra
            summary = result.extra["trace_summary"]
            assert summary["task"]["count"] == 1
            assert "run" in summary

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_disabled_tracer_records_nothing(self, backend):
        tracer = Tracer(enabled=False)
        options = RunnerOptions(executor=backend, max_workers=2)
        with TestRunner(options=options) as runner, tracer.activate():
            results = runner.run_on_engines(PRESCRIPTION, ENGINES[:2], 60)
        assert tracer.roots() == []
        for result in results:
            assert "trace" not in result.extra
            assert "trace_summary" not in result.extra

    def test_traced_results_match_untraced_results(self):
        with TestRunner() as runner:
            untraced = runner.run_on_engines(PRESCRIPTION, ENGINES, 60)
        tracer = Tracer()
        with TestRunner() as runner, tracer.activate():
            traced = runner.run_on_engines(PRESCRIPTION, ENGINES, 60)
        assert _metric_means(traced) == _metric_means(untraced)


class TestConfigurationSweep:
    CONFIGS = {
        "small": SystemConfiguration(
            "mapreduce", {"num_nodes": 2, "slots_per_node": 1}
        ),
        "large": SystemConfiguration(
            "mapreduce", {"num_nodes": 8, "slots_per_node": 4}
        ),
    }

    def test_sweep_labels_points_in_configuration_order(self):
        report = BenchmarkHarness().configuration_sweep(
            "micro-wordcount", "mapreduce", self.CONFIGS, volume_override=30
        )
        assert [point.value for point in report.points] == ["small", "large"]
        assert report.points[0].result.extra["configuration"] == "small"

    def test_failing_configuration_leaves_runner_intact(self):
        runner = TestRunner()
        configs = {
            "ok": SystemConfiguration("mapreduce"),
            "broken": SystemConfiguration("spark"),  # no recipe → raises
        }
        with pytest.raises(ExecutionError):
            BenchmarkHarness(runner).configuration_sweep(
                "micro-wordcount", "mapreduce", configs, volume_override=20
            )
        assert runner.run("micro-wordcount", "mapreduce", 20).ok

    def test_larger_cluster_is_faster(self):
        report = BenchmarkHarness().configuration_sweep(
            "micro-wordcount", "mapreduce", self.CONFIGS, volume_override=120
        )
        series = dict(report.series("throughput"))
        assert series["large"] > series["small"]
