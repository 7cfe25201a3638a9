"""The Execution Layer: configuration, running, sweeping, reporting."""

from repro.execution.config import (
    SystemConfiguration,
    default_configurations,
    prepare_input,
)
from repro.execution.harness import BenchmarkHarness, SweepPoint, SweepReport
from repro.execution.parallel import (
    EXECUTOR_BACKENDS,
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    compute_chunksize,
    resolve_executor,
)
from repro.execution.report import (
    RESULT_STYLES,
    ascii_table,
    markdown_table,
    render_results,
    render_trace,
)
from repro.execution.retry import (
    ON_ERROR_POLICIES,
    RetryPolicy,
    TaskTimeoutError,
    call_with_timeout,
)
from repro.execution.runner import (
    RunnerOptions,
    RunOutcome,
    RunTask,
    TestRunner,
)
from repro.execution.workers import (
    TaskDescriptor,
    WorkerInit,
    WorkerPool,
    WorkerPoolError,
)

__all__ = [
    "BenchmarkHarness",
    "EXECUTOR_BACKENDS",
    "ON_ERROR_POLICIES",
    "ParallelExecutor",
    "ProcessExecutor",
    "RESULT_STYLES",
    "RetryPolicy",
    "RunOutcome",
    "RunTask",
    "RunnerOptions",
    "SerialExecutor",
    "SweepPoint",
    "SweepReport",
    "SystemConfiguration",
    "TaskDescriptor",
    "TaskTimeoutError",
    "TestRunner",
    "ThreadExecutor",
    "WorkerInit",
    "WorkerPool",
    "WorkerPoolError",
    "ascii_table",
    "call_with_timeout",
    "compute_chunksize",
    "default_configurations",
    "markdown_table",
    "prepare_input",
    "render_results",
    "render_trace",
    "resolve_executor",
]
