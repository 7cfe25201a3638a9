"""Tests for the parallel execution layer.

Covers the executor abstraction itself (ordering, validation), the
cache lookups and traces every backend reports, and the
configuration-sweep isolation guarantee.  That thread and process
fan-out reproduce the serial run is the plan product property's
(``tests/integration/test_plan_product.py``).
"""

from __future__ import annotations

import pytest

from repro.core.errors import ExecutionError
from repro.core.prescription import Prescription
from repro.core.process import BenchmarkingProcess
from repro.core.spec import BenchmarkSpec
from repro.execution.config import SystemConfiguration
from repro.execution.parallel import (
    EXECUTOR_BACKENDS,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Tracer
from tests._runs import run_on_engines, run_one

ENGINES = ["dbms", "mapreduce", "nosql"]
PRESCRIPTION = "database-aggregate-join"


def _square(value: int) -> int:  # module level: picklable for "process"
    return value * value


def _metric_means(results) -> dict[tuple[str, str], float]:
    """The means that wall-clock time does not move: not ``duration``,
    and nothing of the DBMS, whose every rate divides by it."""
    return {
        (result.engine, name): result.mean(name)
        for result in results
        if result.engine != "dbms"
        for name in result.metrics
        if name != "duration"
    }


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
    """Every backend counts the batch's dataset-cache lookups.  That it
    runs a spec as the serial backend does is the plan product
    property's (``tests/integration/test_plan_product.py``)."""

    def test_serial_results_carry_cache_stats(self):
        with TestRunner(options=RunnerOptions(executor="serial")) as runner:
            before = runner.test_generator.dataset_cache.stats()
            results = run_on_engines(runner, PRESCRIPTION, ENGINES, 60)
            stats = runner.cache_delta(before, results)
        assert stats.misses == 1
        assert stats.hits == len(ENGINES) - 1

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_execution_step_counts_every_lookup(self, backend):
        """Step 4 reports the cache lookups of the run, wherever they
        happened: a process run's happen in its workers' caches."""
        spec = BenchmarkSpec(
            prescription=PRESCRIPTION,
            engines=ENGINES,
            volume=60,
            executor=backend,
            max_workers=2,
        )
        report = BenchmarkingProcess().execute(spec)
        stats = report.step("execution").detail["dataset_cache"]
        # Step 2 generated the data set: every task is a hit.
        assert (stats["hits"], stats["misses"]) == (len(ENGINES), 0)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_run_on_engines_counts_every_lookup(self, backend):
        """A batch's ``cache_delta`` counts as step 4 does, a process
        run's worker lookups included (it read hits 0, misses 1 while
        each worker logged a hit)."""
        options = RunnerOptions(executor=backend, max_workers=2)
        with TestRunner(options=options) as runner:
            before = runner.test_generator.dataset_cache.stats()
            results = run_on_engines(runner, PRESCRIPTION, ENGINES, 60)
            stats = runner.cache_delta(before, results)
        # Generated once (here, not in a step 2); every engine looked.
        assert stats.misses == 1
        assert stats.hits >= len(ENGINES) - 1


class TestProcessPayloads:
    """What crosses the process boundary with each task: its shipped
    prescription."""

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


class TestTracedBackends:
    """Tracing must see through every executor backend identically:
    one ``task`` span per submission (in order), queue-wait recorded,
    the full ``run`` tree beneath, and cache counters inside."""

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_task_span_trees_match_the_serial_shape(self, backend):
        tracer = Tracer()
        options = RunnerOptions(executor=backend, max_workers=2)
        with TestRunner(options=options) as runner, tracer.activate():
            results = run_on_engines(runner, PRESCRIPTION, ENGINES, 60)
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
            results = run_on_engines(runner, PRESCRIPTION, ENGINES[:2], 60)
        assert tracer.roots() == []
        for result in results:
            assert "trace" not in result.extra
            assert "trace_summary" not in result.extra

    def test_traced_results_match_untraced_results(self):
        with TestRunner() as runner:
            untraced = run_on_engines(runner, PRESCRIPTION, ENGINES, 60)
        tracer = Tracer()
        with TestRunner() as runner, tracer.activate():
            traced = run_on_engines(runner, PRESCRIPTION, ENGINES, 60)
        assert _metric_means(traced) == _metric_means(untraced)


class TestConfigurationSweep:
    """A sweep over engine configurations is one task per configuration:
    each configuration travels with its task, the runner holds none."""

    CONFIGS = {
        "small": SystemConfiguration(
            "mapreduce", {"num_nodes": 2, "slots_per_node": 1}
        ),
        "large": SystemConfiguration(
            "mapreduce", {"num_nodes": 8, "slots_per_node": 4}
        ),
    }

    @staticmethod
    def _sweep(configs, volume, runner=None):
        tasks = [
            RunTask("micro-wordcount", "mapreduce", volume, configuration=config)
            for config in configs.values()
        ]
        return dict(zip(configs, (runner or TestRunner()).run_many(tasks)))

    def test_sweep_labels_points_in_configuration_order(self):
        points = self._sweep(self.CONFIGS, 30)
        assert list(points) == ["small", "large"]
        assert all(result.ok for result in points.values())

    def test_failing_configuration_leaves_runner_intact(self):
        runner = TestRunner()
        configs = {
            "ok": SystemConfiguration("mapreduce"),
            "broken": SystemConfiguration("spark"),  # no recipe → raises
        }
        with pytest.raises(ExecutionError):
            self._sweep(configs, 20, runner)
        assert run_one(runner, "micro-wordcount", "mapreduce", 20).ok

    def test_larger_cluster_is_faster(self):
        points = self._sweep(self.CONFIGS, 120)
        assert points["large"].mean("throughput") > points["small"].mean(
            "throughput"
        )
