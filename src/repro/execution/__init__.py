"""The Execution Layer: configuration, running, sweeping, reporting."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.execution.config": ("SystemConfiguration",),
        "repro.execution.harness": ("SweepPoint", "SweepReport"),
        "repro.execution.parallel": (
            "EXECUTOR_BACKENDS", "ParallelExecutor", "SerialExecutor",
            "ThreadExecutor", "compute_chunksize", "resolve_executor",
        ),
        "repro.execution.report": (
            "RESULT_STYLES", "ascii_table", "markdown_table", "render_results",
            "render_trace",
        ),
        "repro.execution.retry": (
            "ON_ERROR_POLICIES", "RetryPolicy", "TaskTimeoutError",
            "call_with_timeout",
        ),
        "repro.execution.runner": (
            "RunnerOptions", "RunOutcome", "RunTask", "TestRunner",
        ),
        "repro.execution.workers": (
            "TaskDescriptor", "WorkerPool", "WorkerPoolError",
        ),
    },
)
