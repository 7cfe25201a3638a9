"""Tests for the warm process worker pool (``execution/workers.py``).

Covers the pool's lifetime contract (reuse across ``run_many`` calls,
invalidation when the options it was initialized from mutate, shutdown
on ``close``), the dataset-shipping strategies (shared-bytes export for
shared keys, fingerprint shipping with worker-side regeneration and
cache hits), payload-size observability on traced runs, and parity
with the serial runner (the oracle).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.prescription import builtin_repository
from repro.engines.faults import FaultSpec
from repro.execution.config import SystemConfiguration
from repro.execution.parallel import compute_chunksize
from repro.execution.retry import RetryPolicy
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
#: sample the random-text generator at the same seed and volume), so a
#: batch over them exercises the shared-key export path.
SHARED_DATA_TASKS = [
    RunTask("micro-wordcount", "mapreduce"),
    RunTask("micro-sort", "mapreduce"),
]

#: Two prescriptions with *distinct* dataset keys, neither generated in
#: the parent — each is a single-consumer key, so both ship as bare
#: fingerprints and the workers regenerate deterministically.
DISTINCT_DATA_TASKS = [
    RunTask("micro-wordcount", "mapreduce"),
    RunTask("database-aggregate-join", "mapreduce"),
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

    def test_pool_invalidated_when_options_mutate(self):
        with _process_runner() as runner:
            runner.run_many(SHARED_DATA_TASKS)
            stale = runner._worker_pool
            runner.options.repeats = 2
            runner.run_many(SHARED_DATA_TASKS)
            fresh = runner._worker_pool
            assert fresh is not stale
            assert fresh.batches == 1

    def test_pool_invalidated_when_max_workers_mutate(self):
        with _process_runner(max_workers=2) as runner:
            runner.run_many(SHARED_DATA_TASKS)
            stale = runner._worker_pool
            runner.options.max_workers = 1
            runner.run_many(SHARED_DATA_TASKS)
            assert runner._worker_pool is not stale
            assert runner._worker_pool.max_workers == 1

    def test_close_releases_pool_and_exports(self):
        runner = _process_runner()
        runner.run_many(SHARED_DATA_TASKS)
        pool = runner._worker_pool
        assert pool.exports  # the shared key shipped as bytes
        runner.close()
        assert runner._worker_pool is None
        assert pool.exports == {}

    def test_pool_agrees_with_the_serial_oracle(self):
        deterministic = [
            "throughput", "ops_per_second", "data_rate",
            "network_rate", "energy", "cost",
        ]
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
            for name in deterministic:
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
    def test_shared_key_exports_bytes_once_workers_hit(self):
        with _process_runner() as runner:
            outcomes = runner.run_many(SHARED_DATA_TASKS)
            pool = runner._worker_pool
            # One dataset behind both tasks -> one export for the batch.
            assert len(pool.exports) == 1
            for outcome in outcomes:
                cache_delta = outcome.extra["worker_cache"]
                assert cache_delta["misses"] == 0
                assert cache_delta["hits"] == 1

    def test_fingerprint_ship_regenerates_then_hits_locally(self):
        with _process_runner(max_workers=1) as runner:
            first = runner.run_many(DISTINCT_DATA_TASKS)
            pool = runner._worker_pool
            # Single-consumer keys ship as fingerprints: no bytes exported.
            assert pool.exports == {}
            for outcome in first:
                assert outcome.extra["worker_cache"]["misses"] == 1
            # Same tasks again: the (single) worker's cache now holds
            # both data sets, so the second batch is all hits.
            second = runner.run_many(DISTINCT_DATA_TASKS)
            assert runner._worker_pool is pool
            for outcome in second:
                cache_delta = outcome.extra["worker_cache"]
                assert cache_delta["misses"] == 0
                assert cache_delta["hits"] == 1

    def test_a_shared_key_that_cannot_ship_is_regenerated(self, monkeypatch):
        """No shared-memory segment: the handle is a fingerprint and the
        worker generates the data set itself (once, then hits)."""
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        with _process_runner(max_workers=1) as runner:
            outcomes = runner.run_many(SHARED_DATA_TASKS)
            (export,) = runner._worker_pool.exports.values()
            assert export.handle.kind == "fingerprint"
        deltas = [outcome.extra["worker_cache"] for outcome in outcomes]
        assert [(d["misses"], d["hits"]) for d in deltas] == [(1, 0), (0, 1)]
        assert all(outcome.ok for outcome in outcomes)

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

        def run_batch(pool, descriptors):
            shipped.extend(descriptors)
            context = WorkerContext(pool.init)
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
            "task", "handle", "on_error", "retry_policy", "task_index",
            "submitted_wall", "trace", "pool_batch", "payload_bytes",
        }
        for index, descriptor in enumerate(shipped):
            assert descriptor.task_index == index
            assert descriptor.on_error == "continue"
            assert descriptor.retry_policy == RetryPolicy(max_attempts=3)
            assert descriptor.trace is False
            assert descriptor.payload_bytes is None
        # A materialized task ships a dataset handle, a streaming one none.
        assert shipped[0].handle is not None and shipped[1].handle is None


class TestRetryPolicyShipping:
    def test_the_worker_sleeps_the_serial_backoff_schedule(self):
        """The policy ships by value: a worker's retry loop sleeps the
        delays the serial oracle sleeps for the same task."""
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
