"""Tests for the fault-tolerant execution layer.

Covers the retry/timeout primitives, the runner's attempt loop (capture
vs. fail-fast), cross-backend error-path parity — the serial, thread,
and process backends must produce identical merged outcomes under
seeded fault injection — and the surfacing paths: tracing attributes,
result tables, and the five-step process report.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core.errors import ExecutionError, SpecError
from repro.core.process import BenchmarkingProcess
from repro.core.prescription import builtin_repository
from repro.core.results import MetricStats, RunResult, TaskFailure, split_outcomes
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.engines.faults import FaultSpec, FaultyEngine, InjectedFault
from repro.execution.config import SystemConfiguration
from repro.execution.parallel import SerialExecutor, ThreadExecutor
from repro.execution.report import render_results
from repro.execution.retry import (
    ON_ERROR_POLICIES,
    RetryPolicy,
    TaskTimeoutError,
    call_with_timeout,
)
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Tracer, summarize_spans

ENGINES = ["dbms", "mapreduce", "nosql"]
PRESCRIPTION = "database-aggregate-join"

#: Wall-clock-free metrics per engine (see test_parallel.py): the subset
#: whose means must match bit-for-bit across executor backends.
DETERMINISTIC_METRICS = {
    "mapreduce": [
        "throughput", "ops_per_second", "data_rate",
        "network_rate", "energy", "cost",
    ],
    "nosql": ["throughput", "mean_latency", "latency_p95", "latency_p99"],
    "dbms": [],
}


def _runner(backend: str, **options: object) -> TestRunner:
    return TestRunner(
        test_generator=TestGenerator(builtin_repository()),
        options=RunnerOptions(
            check_format=False, executor=backend, max_workers=3, **options
        ),
    )


def _tasks(
    engines: list[str] = ENGINES,
    volume: int = 50,
    fault: FaultSpec | None = None,
) -> list[RunTask]:
    """One task per engine; with ``fault``, each on an otherwise bare
    engine carrying that fault schedule."""
    prescription = builtin_repository().get(PRESCRIPTION)
    return [
        RunTask(
            prescription, name, volume, {},
            configuration=(
                SystemConfiguration(name, fault=fault) if fault else None
            ),
        )
        for name in engines
    ]


def _outcome_fingerprint(outcomes) -> list[tuple]:
    """Order, status, attempts, error, and deterministic metric means."""
    fingerprint = []
    for outcome in outcomes:
        if outcome.ok:
            means = tuple(
                (name, outcome.mean(name))
                for name in DETERMINISTIC_METRICS[outcome.engine]
                if name in outcome.metrics
            )
            fingerprint.append(
                (outcome.test_name, "ok", outcome.extra.get("attempts"), means)
            )
        else:
            fingerprint.append(
                (outcome.test_name, "failed", outcome.attempts, outcome.error)
            )
    return fingerprint


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=0.5, seed=7)
        for attempt in (1, 2, 3):
            assert policy.delay(attempt, "k") == policy.delay(attempt, "k")

    def test_delay_without_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_seconds=0.5, backoff_factor=2.0, jitter=0.0
        )
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0

    def test_delay_clamped_to_max_backoff(self):
        policy = RetryPolicy(
            max_attempts=20, backoff_seconds=1.0, jitter=0.0,
            max_backoff_seconds=4.0,
        )
        assert policy.delay(10) == 4.0

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(max_attempts=3, backoff_seconds=1.0, jitter=0.25)
        for attempt in range(1, 10):
            base = min(2.0 ** (attempt - 1), policy.max_backoff_seconds)
            assert 0.75 * base <= policy.delay(attempt, "task") <= 1.25 * base

    def test_jitter_varies_by_key_and_seed(self):
        base = RetryPolicy(max_attempts=3, backoff_seconds=1.0, seed=0)
        delays_a = [base.delay(1, f"k{i}") for i in range(10)]
        assert len(set(delays_a)) > 1  # keys perturb the stream
        reseeded = RetryPolicy(max_attempts=3, backoff_seconds=1.0, seed=1)
        assert [reseeded.delay(1, f"k{i}") for i in range(10)] != delays_a

    def test_zero_backoff_means_zero_delay(self):
        assert RetryPolicy(max_attempts=3).delay(1, "k") == 0.0

    def test_should_retry_respects_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(ValueError(), 1)
        assert not policy.should_retry(ValueError(), 2)

    def test_should_retry_filters_types(self):
        policy = RetryPolicy(max_attempts=5, retryable=(InjectedFault,))
        assert policy.should_retry(InjectedFault("x"), 1)
        assert not policy.should_retry(ValueError("x"), 1)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_seconds": -1.0},
        {"backoff_factor": 0.5},
        {"jitter": 1.0},
        {"jitter": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            RetryPolicy(**kwargs)


class TestCallWithTimeout:
    def test_no_timeout_is_a_plain_call(self):
        assert call_with_timeout(lambda: 41 + 1, None) == 42

    def test_fast_call_returns_result(self):
        assert call_with_timeout(lambda: "ok", 5.0) == "ok"

    def test_slow_call_raises_timeout(self):
        with pytest.raises(TaskTimeoutError):
            call_with_timeout(lambda: time.sleep(1.0), 0.05)

    def test_error_propagates(self):
        def explode():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            call_with_timeout(explode, 5.0)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ExecutionError):
            call_with_timeout(lambda: None, 0.0)


# ---------------------------------------------------------------------------
# Options / spec plumbing
# ---------------------------------------------------------------------------


class TestFaultToleranceOptions:
    @pytest.mark.parametrize("kwargs", [
        {"on_error": "panic"},
        {"retries": -1},
        {"retry_backoff": -0.5},
        {"task_timeout": 0.0},
    ])
    def test_runner_options_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            RunnerOptions(**kwargs)

    def test_retry_policy_derivation(self):
        policy = RunnerOptions(retries=2, retry_backoff=0.25).retry_policy()
        assert policy.max_attempts == 3
        assert policy.backoff_seconds == 0.25
        # Jitter and its seed are the policy's own defaults.
        default = RetryPolicy()
        assert (policy.jitter, policy.seed) == (default.jitter, default.seed)

    @pytest.mark.parametrize("kwargs", [
        {"on_error": "panic"},
        {"retries": -1},
        {"retry_backoff": -0.5},
        {"task_timeout": 0.0},
    ])
    def test_benchmark_spec_validation(self, kwargs):
        spec = BenchmarkSpec(prescription=PRESCRIPTION, **kwargs)
        with pytest.raises(SpecError):
            spec.validate(builtin_repository())

    def test_on_error_policies(self):
        assert ON_ERROR_POLICIES == ("abort", "continue")


class TestExecutorInvalidation:
    def test_mutating_options_rebuilds_the_executor(self):
        with TestRunner(options=RunnerOptions(executor="serial")) as runner:
            assert isinstance(runner.executor, SerialExecutor)
            runner.options.executor = "thread"
            assert isinstance(runner.executor, ThreadExecutor)

    def test_mutating_max_workers_rebuilds_the_executor(self):
        with TestRunner(
            options=RunnerOptions(executor="thread", max_workers=1)
        ) as runner:
            first = runner.executor
            runner.options.max_workers = 2
            second = runner.executor
            assert second is not first
            assert second.max_workers == 2

    def test_stable_options_keep_the_executor(self):
        with TestRunner() as runner:
            assert runner.executor is runner.executor


# ---------------------------------------------------------------------------
# The attempt loop
# ---------------------------------------------------------------------------


class TestRetryLoop:
    def test_scheduled_failures_recover_within_budget(self):
        fault = FaultSpec(fail_attempts=(0, 1))
        with _runner("serial", retries=3) as runner:
            (outcome,) = runner.run_many(_tasks(["dbms"], fault=fault))
        assert outcome.ok
        assert outcome.extra["attempts"] == 3

    def test_insufficient_budget_aborts_with_the_original_error(self):
        fault = FaultSpec(fail_attempts=(0, 1))
        with _runner("serial", retries=1) as runner:
            with pytest.raises(InjectedFault):
                runner.run_many(_tasks(["dbms"], fault=fault))

    def test_continue_captures_the_failure_in_order(self):
        spec = FaultSpec(fail_attempts=(0, 1, 2, 3))  # dbms always fails
        with _runner("serial", retries=1, on_error="continue") as runner:
            outcomes = runner.run_many(
                _tasks(["mapreduce"]) + _tasks(["dbms"], fault=spec)
            )
        ok, failed = outcomes
        assert ok.ok and ok.engine == "mapreduce"
        assert not failed.ok
        assert failed.engine == "dbms"
        assert failed.attempts == 2
        assert failed.error_type == "InjectedFault"
        assert failed.test_name == f"{PRESCRIPTION}@dbms"
        assert failed.traceback_summary  # post-mortem breadcrumbs captured

    def test_clean_runs_carry_no_retry_metadata(self):
        with TestRunner(options=RunnerOptions(check_format=False)) as runner:
            (outcome,) = runner.run_many(_tasks(["dbms"]))
        assert "attempts" not in outcome.extra

    def test_replaced_options_apply_to_the_next_batch(self):
        tasks = _tasks(["dbms"], fault=FaultSpec(fail_attempts=(0,)))
        with _runner("serial", retries=0) as runner:
            with pytest.raises(InjectedFault):
                runner.run_many(tasks)
            runner.options = dataclasses.replace(runner.options, retries=1)
            (outcome,) = runner.run_many(tasks)
        assert outcome.ok and outcome.extra["attempts"] == 2

    def test_timeout_failure_is_captured(self):
        spec = FaultSpec(latency_rate=1.0, latency_seconds=0.5)
        with _runner(
            "serial", task_timeout=0.05, on_error="continue"
        ) as runner:
            (outcome,) = runner.run_many(_tasks(["dbms"], fault=spec))
        assert not outcome.ok
        assert outcome.error_type == "TaskTimeoutError"

    def test_backoff_schedule_is_slept(self):
        spec = FaultSpec(fail_attempts=(0,))
        with _runner("serial", retries=1, retry_backoff=0.1) as runner:
            started = time.perf_counter()
            (outcome,) = runner.run_many(_tasks(["dbms"], fault=spec))
            elapsed = time.perf_counter() - started
        assert outcome.ok
        assert elapsed >= 0.09  # one backoff (±10% jitter) was slept


# ---------------------------------------------------------------------------
# Cross-backend parity
# ---------------------------------------------------------------------------


class TestErrorPathParity:
    """A raising task must behave identically on every backend."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_abort_propagates_the_same_exception_type(self, backend):
        with _runner(backend) as runner:
            with pytest.raises(InjectedFault):
                runner.run_many(_tasks(fault=FaultSpec(failure_rate=1.0)))

    def test_continue_merges_identically_across_backends(self):
        """The acceptance scenario: ~30% of attempts fail, retries=3,
        and all three backends return the same outcomes in submission
        order — same statuses, attempt counts, errors, and
        deterministic metric means."""
        spec = FaultSpec(seed=7, failure_rate=0.3)
        fingerprints = {}
        for backend in ("serial", "thread", "process"):
            runner = _runner(
                backend, repeats=2, on_error="continue", retries=3
            )
            with runner:
                outcomes = runner.run_many(_tasks(fault=spec))
            assert [o.engine for o in outcomes] == ENGINES
            fingerprints[backend] = _outcome_fingerprint(outcomes)
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_always_failing_batch_completes_under_continue(self):
        spec = FaultSpec(failure_rate=1.0)
        with _runner("thread", on_error="continue", retries=1) as runner:
            outcomes = runner.run_many(_tasks(fault=spec))
        assert [o.ok for o in outcomes] == [False, False, False]
        assert [o.attempts for o in outcomes] == [2, 2, 2]

    def test_split_outcomes_partitions_by_type(self):
        spec = FaultSpec(fail_attempts=(0, 1))  # exhausts a 1-retry budget
        with _runner("serial", on_error="continue", retries=1) as runner:
            outcomes = runner.run_many(
                _tasks(["mapreduce"]) + _tasks(["dbms"], fault=spec)
            )
        results, failures = split_outcomes(outcomes)
        assert [r.engine for r in results] == ["mapreduce"]
        assert [f.engine for f in failures] == ["dbms"]


class TestQueueWaitRegression:
    """Cross-process queue-wait must be a wall-clock delta: the historic
    perf_counter pairing compared two unrelated epochs."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_queue_wait_bounded_by_batch_wall_time(self, backend):
        tracer = Tracer()
        options = RunnerOptions(
            check_format=False, executor=backend, max_workers=2
        )
        with TestRunner(options=options) as runner, tracer.activate():
            started = time.perf_counter()
            runner.run_many(_tasks())
            wall = time.perf_counter() - started
        roots = tracer.roots()
        assert len(roots) == len(ENGINES)
        for root in roots:
            wait = root.attrs["queue_wait_seconds"]
            assert 0.0 <= wait <= wall


# ---------------------------------------------------------------------------
# Tracing surface
# ---------------------------------------------------------------------------


class TestRetryTracing:
    def test_task_span_records_attempts_and_status(self):
        tracer = Tracer()
        fault = FaultSpec(fail_attempts=(0,))
        with _runner("serial", retries=1) as runner, tracer.activate():
            (outcome,) = runner.run_many(_tasks(["dbms"], fault=fault))
        (root,) = tracer.roots()
        assert root.name == "task"
        assert root.attrs["attempts"] == 2
        assert root.attrs["status"] == "ok"
        # Both attempts left their run trees: the failed one is marked.
        runs = [child for child in root.children if child.name == "run"]
        assert len(runs) == 2
        assert runs[0].attrs["error"] == "InjectedFault"
        assert "error" not in runs[1].attrs
        summary = outcome.extra["trace_summary"]
        assert summary["task"]["counters"]["task.retries"] == 1
        assert summary["task"]["counters"]["task.failed_attempts"] == 1

    def test_failed_task_span_records_the_error(self):
        tracer = Tracer()
        fault = FaultSpec(failure_rate=1.0)
        with _runner("serial", on_error="continue") as runner, tracer.activate():
            (outcome,) = runner.run_many(_tasks(["dbms"], fault=fault))
        (root,) = tracer.roots()
        assert root.attrs["status"] == "failed"
        assert root.attrs["error"] == "InjectedFault"
        assert not outcome.ok

    def test_backoff_spans_record_the_schedule(self):
        tracer = Tracer()
        fault = FaultSpec(fail_attempts=(0,))
        runner = _runner("serial", retries=1, retry_backoff=0.02)
        with runner, tracer.activate():
            runner.run_many(_tasks(["dbms"], fault=fault))
        (root,) = tracer.roots()
        backoffs = [c for c in root.children if c.name == "backoff"]
        assert len(backoffs) == 1
        assert backoffs[0].attrs["seconds"] > 0

    def test_summarize_spans_keeps_counters_conditional(self):
        tracer = Tracer()
        with tracer.span("clean"):
            pass
        with tracer.span("counted") as span:
            span.incr("hits", 2)
        summary = summarize_spans(tracer.roots())
        assert "counters" not in summary["clean"]
        assert summary["counted"]["counters"] == {"hits": 2}


# ---------------------------------------------------------------------------
# Reporting surface
# ---------------------------------------------------------------------------


def _result(engine: str, **extra) -> RunResult:
    return RunResult(
        test_name=f"t@{engine}", workload="w", engine=engine, repeats=1,
        metrics={"duration": MetricStats("duration", [1.0])},
        extra=dict(extra),
    )


def _failure(engine: str, attempts: int = 2) -> TaskFailure:
    return TaskFailure(
        test_name=f"t@{engine}", workload="w", engine=engine,
        error_type="InjectedFault", error_message="injected fault",
        attempts=attempts,
    )


class TestFailureReporting:
    def test_clean_tables_are_unchanged(self):
        table = render_results([_result("dbms"), _result("nosql")])
        assert "status" not in table
        assert "attempts" not in table
        assert "error" not in table

    def test_mixed_tables_show_status_and_error(self):
        table = render_results(
            [_result("dbms", attempts=1), _failure("nosql", attempts=3)]
        )
        assert "status" in table
        assert "failed" in table
        assert "InjectedFault: injected fault" in table
        assert "ok" in table

    def test_retried_success_shows_attempts(self):
        table = render_results(
            [_result("dbms", attempts=2), _result("nosql", attempts=1)]
        )
        assert "attempts" in table
        assert "status" in table

    def test_json_embeds_failures(self):
        import json

        payload = json.loads(
            render_results([_result("dbms"), _failure("nosql")], style="json")
        )
        assert payload[1]["status"] == "failed"
        assert payload[1]["error_type"] == "InjectedFault"
        assert payload[1]["attempts"] == 2

    def test_markdown_style_renders_failures(self):
        table = render_results([_failure("nosql")], style="markdown")
        assert table.startswith("|")
        assert "failed" in table

    def test_task_failure_as_dict_round_trip(self):
        failure = TaskFailure.from_exception(
            test_name="t@dbms", workload="w", engine="dbms",
            error=ValueError("bad"), attempts=4,
        )
        payload = failure.as_dict()
        assert payload["error_type"] == "ValueError"
        assert payload["error_message"] == "bad"
        assert payload["attempts"] == 4
        assert "traceback" not in payload  # error had no traceback frames


class _FaultyEngineRegistry:
    """Registry shim: every created engine carries a fault schedule."""

    def __init__(self, inner, spec: FaultSpec) -> None:
        self._inner = inner
        self._spec = spec

    def create(self, name: str):
        return FaultyEngine(self._inner.create(name), self._spec)

    def names(self):
        return self._inner.names()

    def __contains__(self, name: str) -> bool:
        return name in self._inner

    def __iter__(self):
        return iter(self._inner)


class TestProcessReportFailures:
    """Failure surfacing in the five-step process report.

    Specs pin ``executor="serial"``: the faulty-registry shim lives in
    this process and cannot follow tasks across a process boundary.
    """

    def _process(self, spec: FaultSpec) -> BenchmarkingProcess:
        from repro.core import registry

        generator = TestGenerator(
            engine_registry=_FaultyEngineRegistry(registry.engines, spec)
        )
        return BenchmarkingProcess(test_generator=generator)

    def test_continue_keeps_the_run_and_records_failures(self):
        process = self._process(FaultSpec(failure_rate=1.0))
        spec = BenchmarkSpec(
            prescription=PRESCRIPTION, engines=["dbms", "mapreduce"],
            volume=50, executor="serial", on_error="continue", retries=1,
        )
        report = process.execute(spec)
        assert report.results == []
        assert [f.engine for f in report.failures] == ["dbms", "mapreduce"]
        detail = report.step("execution").detail
        assert [f["engine"] for f in detail["failures"]] == [
            "dbms", "mapreduce"
        ]
        assert all(f["attempts"] == 2 for f in detail["failures"])

    def test_partial_failure_keeps_completed_results(self):
        # Attempts 0 and 1 fail: a 1-retry budget dies, 2 retries recover.
        process = self._process(FaultSpec(fail_attempts=(0, 1)))
        spec = BenchmarkSpec(
            prescription=PRESCRIPTION, engines=["dbms", "mapreduce"],
            volume=50, executor="serial", on_error="continue", retries=2,
        )
        report = process.execute(spec)
        assert [r.engine for r in report.results] == ["dbms", "mapreduce"]
        assert report.failures == []
        assert all(r.extra["attempts"] == 3 for r in report.results)

    def test_abort_remains_the_default(self):
        process = self._process(FaultSpec(failure_rate=1.0))
        spec = BenchmarkSpec(
            prescription=PRESCRIPTION, engines=["dbms"], volume=50,
            executor="serial",
        )
        with pytest.raises(InjectedFault):
            process.execute(spec)
