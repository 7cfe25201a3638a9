"""Tests for the warm process worker pool (``execution/workers.py``).

Covers the pool's lifetime contract (built once per runner, reused
across ``run_many`` calls, shut down on ``close``), how workers get
their data sets (the parent's, handed over when the pool is created;
regenerated by each worker otherwise), payload-size observability on
traced runs, and parity with the serial runner (the oracle) under the
default and the ``spawn`` start method.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import pickle
from collections import Counter

import pytest

from repro.core.prescription import builtin_repository
from repro.engines.faults import FaultSpec
from repro.execution.config import SystemConfiguration
from repro.execution.parallel import compute_chunksize
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.execution.workers import (
    TaskDescriptor,
    WorkerContext,
    WorkerPool,
    WorkerPoolError,
    shipped_prescription,
)
from repro.observability import Tracer

#: Two prescriptions that resolve to the *same* dataset-cache key (both
#: sample the random-text generator at the same seed and volume), so the
#: parent generates it before the pool is created.
SHARED_DATA_TASKS = [
    RunTask("micro-wordcount", "mapreduce"),
    RunTask("micro-sort", "mapreduce"),
]

#: Four tasks over one key that no earlier batch used.
NEW_KEY_TASKS = [
    RunTask("database-aggregate-join", engine, 40)
    for engine in ("dbms", "mapreduce", "nosql", "mapreduce")
]

#: Metrics whose means every backend must reproduce exactly.
DETERMINISTIC = [
    "throughput", "ops_per_second", "data_rate",
    "network_rate", "energy", "cost",
]


def _process_runner(max_workers: int = 2, **options) -> TestRunner:
    return TestRunner(
        options=RunnerOptions(
            executor="process", max_workers=max_workers, **options
        )
    )


class TestPoolLifetime:
    def test_pool_reused_across_run_many_calls(self):
        with _process_runner() as runner:
            runner.run_many(SHARED_DATA_TASKS)
            pool = runner._worker_pool
            assert isinstance(pool, WorkerPool)
            assert pool.batches == 1
            runner.run_many(SHARED_DATA_TASKS)
            assert runner._worker_pool is pool
            assert pool.batches == 2

    def test_one_pool_per_runner_and_no_digest(self, monkeypatch):
        from repro.execution import runner as runner_module

        assert not hasattr(runner_module, "hashlib")
        built = []

        class CountedPool(WorkerPool):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner_module, "WorkerPool", CountedPool)
        with _process_runner() as runner:
            for _ in range(3):
                runner.run_many(SHARED_DATA_TASKS)
            assert runner._worker_pool.batches == 3
        assert built == [1]

    def test_the_pool_holds_the_runners_options_on_the_serial_backend(self):
        """The runner's options are the pool initializer's argument: the
        workers' runners carry the whole policy, so no task does."""
        with _process_runner(
            repeats=2, on_error="continue", retries=2, retry_backoff=0.001,
            task_timeout=30.0,
        ) as runner:
            runner.run_many(SHARED_DATA_TASKS)
            assert runner._worker_pool.options == dataclasses.replace(
                runner.options, executor="serial"
            )

    def test_close_releases_pool_and_exports(self):
        runner = _process_runner()
        runner.run_many(SHARED_DATA_TASKS)
        pool = runner._worker_pool
        assert pool.started
        runner.close()
        assert runner._worker_pool is None
        assert not pool.started

    def test_pool_agrees_with_the_serial_oracle(self):
        with _process_runner() as pooled:
            pooled_out = pooled.run_many(SHARED_DATA_TASKS)
        with TestRunner(options=RunnerOptions(executor="serial")) as serial:
            serial_out = serial.run_many(SHARED_DATA_TASKS)
        assert [outcome.test_name for outcome in pooled_out] == [
            "micro-wordcount@mapreduce",
            "micro-sort@mapreduce",
        ]
        for a, b in zip(pooled_out, serial_out):
            assert a.test_name == b.test_name
            for name in DETERMINISTIC:
                assert a.mean(name) == b.mean(name)

    def test_unpicklable_configuration_raises_naming_the_engine(self):
        unpicklable = SystemConfiguration(
            "mapreduce", options={"executor": lambda: None}
        )
        tasks = [
            dataclasses.replace(task, configuration=unpicklable)
            for task in SHARED_DATA_TASKS
        ]
        with _process_runner() as runner:
            with pytest.raises(WorkerPoolError, match="mapreduce"):
                runner.run_many(tasks)


class TestDatasetShipping:
    def test_a_key_the_parent_holds_is_a_worker_hit(self):
        with _process_runner() as runner:
            runner.test_generator.generate("micro-wordcount", "mapreduce")
            cache = runner.test_generator.dataset_cache
            before = cache.stats()
            outcomes = runner.run_many(SHARED_DATA_TASKS)
            parent = cache.stats().since(before)
        assert (parent.hits, parent.misses) == (0, 0)
        for outcome in outcomes:
            delta = outcome.extra["worker_cache"]
            assert (delta["hits"], delta["misses"]) == (1, 0)

    def test_a_reused_pool_regenerates_once_per_worker(self):
        with _process_runner() as runner:
            runner.run_many(SHARED_DATA_TASKS)
            cache = runner.test_generator.dataset_cache
            before = cache.stats()
            outcomes = runner.run_many(NEW_KEY_TASKS)
            parent = cache.stats().since(before)
        # Nothing crosses to a running pool: the parent generates nothing
        # and each worker regenerates the data set once, then hits.
        assert (parent.hits, parent.misses) == (0, 0)
        misses = Counter()
        hits = 0
        for outcome in outcomes:
            delta = outcome.extra["worker_cache"]
            misses[outcome.extra["worker"]["pid"]] += delta["misses"]
            hits += delta["hits"]
        assert set(misses.values()) == {1}
        assert hits == len(NEW_KEY_TASKS) - len(misses)
        assert all(outcome.ok for outcome in outcomes)

    def test_a_spawned_pool_agrees_with_the_serial_oracle(self, monkeypatch):
        """Under ``spawn`` the initializer's data sets are pickled once
        per worker instead of inherited: slower, equally correct."""
        import concurrent.futures

        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            functools.partial(
                concurrent.futures.ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("spawn"),
            ),
        )
        with _process_runner() as pooled:
            pooled_out = pooled.run_many(SHARED_DATA_TASKS)
        with TestRunner(options=RunnerOptions(executor="serial")) as serial:
            serial_out = serial.run_many(SHARED_DATA_TASKS)
        for a, b in zip(pooled_out, serial_out):
            assert a.test_name == b.test_name
            for name in DETERMINISTIC:
                assert a.mean(name) == b.mean(name)
            delta = a.extra["worker_cache"]
            assert (delta["hits"], delta["misses"]) == (1, 0)

    def test_worker_outcome_reports_pid_and_batch(self):
        with _process_runner() as runner:
            outcomes = runner.run_many(SHARED_DATA_TASKS)
            for outcome in outcomes:
                worker = outcome.extra["worker"]
                assert worker["pid"] > 0
                assert worker["pool_batch"] == 0
            outcomes = runner.run_many(SHARED_DATA_TASKS)
            for outcome in outcomes:
                assert outcome.extra["worker"]["pool_batch"] == 1


class TestTracedWarmPool:
    def test_task_spans_carry_payload_bytes_and_pool_batch(self):
        tracer = Tracer()
        with _process_runner() as runner, tracer.activate():
            with tracer.span("batch"):
                runner.run_many(SHARED_DATA_TASKS)
            with tracer.span("batch"):
                outcomes = runner.run_many(SHARED_DATA_TASKS)
        for outcome in outcomes:
            assert "trace" not in outcome.extra
            assert "trace_summary" in outcome.extra
        first_batch, second_batch = tracer.roots()
        for batch, expected_ordinal in ((first_batch, 0), (second_batch, 1)):
            task_spans = [
                child for child in batch.children if child.name == "task"
            ]
            assert len(task_spans) == len(SHARED_DATA_TASKS)
            for span in task_spans:
                assert span.attrs["payload_bytes"] > 0
                # Descriptors are a fraction of the old self-contained
                # payloads (~2KB of prescription+suite+configuration).
                assert span.attrs["payload_bytes"] < 2000
                assert span.attrs["pool_batch"] == expected_ordinal
                assert span.counters["task.payload_bytes"] == (
                    span.attrs["payload_bytes"]
                )


class TestDescriptorShape:
    def test_descriptor_is_the_task_plus_transport_fields(self, monkeypatch):
        """The whole ``RunTask`` crosses the boundary (prescription in
        shipped form), so a task field needs no twin on the descriptor."""
        shipped: list[TaskDescriptor] = []

        def run_batch(pool, descriptors, datasets):
            shipped.extend(descriptors)
            context = WorkerContext(pool.options, datasets)
            return [
                context.run(pickle.loads(pickle.dumps(descriptor)))
                for descriptor in descriptors
            ]

        monkeypatch.setattr(WorkerPool, "run_batch", run_batch)
        custom = dataclasses.replace(
            builtin_repository().get("micro-sort"), name="custom-sort"
        )
        tasks = [
            RunTask("micro-wordcount", "mapreduce", 40, data_partitions=2,
                    series={"layout": "columnar"}),
            RunTask(custom, "mapreduce", 40, chunk_size=16),
        ]
        with _process_runner(on_error="continue", retries=2) as runner:
            outcomes = runner.run_many(tasks)
        assert [outcome.ok for outcome in outcomes] == [True, True]
        assert [descriptor.task for descriptor in shipped] == tasks
        assert {field.name for field in dataclasses.fields(TaskDescriptor)} == {
            "task", "task_index", "submitted_wall", "trace", "pool_batch",
            "payload_bytes",
        }
        for index, descriptor in enumerate(shipped):
            assert descriptor.task_index == index
            assert descriptor.trace is False
            assert descriptor.payload_bytes is None


class TestRetryPolicyShipping:
    def test_the_worker_sleeps_the_serial_backoff_schedule(self):
        """The policy crosses with the pool's options: a worker's retry
        loop sleeps the delays the serial oracle sleeps for the same
        task."""
        options = {"retries": 2, "retry_backoff": 0.004}
        policy = RunnerOptions(**options).retry_policy()
        prescription = builtin_repository().get("database-aggregate-join")
        tasks = [
            RunTask(
                prescription, name, 40,
                configuration=SystemConfiguration(
                    name, fault=FaultSpec(fail_attempts=(0, 1))
                ),
            )
            for name in ("dbms", "nosql")
        ]
        schedules = {}
        for backend in ("serial", "process"):
            tracer = Tracer()
            runner = TestRunner(
                options=RunnerOptions(executor=backend, max_workers=2, **options)
            )
            with runner, tracer.activate():
                outcomes = runner.run_many(tasks)
            assert [outcome.extra["attempts"] for outcome in outcomes] == [3, 3]
            schedules[backend] = [
                [
                    child.attrs["seconds"]
                    for child in root.children
                    if child.name == "backoff"
                ]
                for root in tracer.roots()
            ]
        assert schedules["serial"] == [
            [policy.delay(1, key), policy.delay(2, key)]
            for key in ("database-aggregate-join@dbms",
                        "database-aggregate-join@nosql")
        ]
        assert schedules["process"] == schedules["serial"]


class TestShippedPrescription:
    def test_builtin_prescription_ships_by_name(self):
        prescription = builtin_repository().get("micro-wordcount")
        assert shipped_prescription(prescription) == "micro-wordcount"

    def test_modified_prescription_ships_by_value(self):
        prescription = builtin_repository().get("micro-wordcount")
        modified = dataclasses.replace(
            prescription, data=dataclasses.replace(prescription.data, volume=7)
        )
        shipped = shipped_prescription(modified)
        assert shipped is modified


class TestComputeChunksize:
    def test_small_batches_stay_unchunked(self):
        assert compute_chunksize(0, 4) == 1
        assert compute_chunksize(1, 4) == 1
        assert compute_chunksize(16, 4) == 1

    def test_large_batches_amortize_ipc(self):
        assert compute_chunksize(64, 4) == 4
        assert compute_chunksize(100, 1) == 25
        assert compute_chunksize(101, 1) == 26

    def test_respects_per_worker_target(self):
        assert compute_chunksize(100, 2, per_worker=1) == 50


class TestFailurePolicyOnWarmPool:
    def test_unknown_prescription_captured_under_continue(self):
        with _process_runner(on_error="continue") as runner:
            outcomes = runner.run_many(
                [
                    RunTask("micro-wordcount", "mapreduce"),
                    RunTask("no-such-prescription", "mapreduce"),
                ]
            )
            assert type(outcomes[0]).__name__ == "RunResult"
            failure = outcomes[1]
            assert type(failure).__name__ == "TaskFailure"
            assert failure.error_type == "TestGenerationError"

    def test_unknown_prescription_aborts_by_default(self):
        with _process_runner() as runner:
            with pytest.raises(Exception):
                runner.run_many(
                    [
                        RunTask("micro-wordcount", "mapreduce"),
                        RunTask("no-such-prescription", "mapreduce"),
                    ]
                )
