"""The test runner (Execution step of Figure 1).

Runs the :class:`RunTask` s :func:`repro.execution.plan.resolve` makes
— one prescribed test each, with warmup and repeats — computes metric
statistics through the standard metric suite, and returns
:class:`~repro.core.results.RunResult` objects ready for analysis.
:meth:`TestRunner.run_many` is the one way in.

Engines are rebuilt per repeat so repeats stay independent — a DBMS that
cached tables from the previous repeat, or a KV store already containing
inserted keys, would otherwise contaminate the statistics.

Independent runs — the engines of a cross-system comparison, the points
of a sweep — fan out over the pluggable executor the
:class:`~repro.execution.runner.RunnerOptions` select (``serial`` /
``thread`` / ``process``; see :mod:`repro.execution.parallel`).  Results
are merged in submission order, so every backend returns the same
results in the same order as the serial path.

Fan-out is fault tolerant.  Every task attempt runs under the options'
:class:`~repro.execution.retry.RetryPolicy` (bounded attempts, seeded
exponential backoff) and optional per-task timeout, on all three
backends: a process worker's runner is built from the same options.
The ``on_error`` policy decides what a task that exhausts its attempts
does to the batch: ``"abort"`` (the default) re-raises — the historical
fail-fast semantics — while ``"continue"`` captures a
:class:`~repro.core.results.TaskFailure` in the task's submission-order
slot and lets the rest of the batch complete.
"""

from __future__ import annotations

import contextlib
import math
import pickle
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any

from repro._util import collector_paused
from repro.core.errors import ExecutionError
from repro.core.metrics import MetricSuite
from repro.core.prescription import Prescription
from repro.core.results import RunResult, TaskFailure
from repro.core.test_generator import TestGenerator
from repro.datagen.cache import CacheStats
from repro.engines.faults import fault_attempt
from repro.execution.config import SystemConfiguration
from repro.execution.parallel import (
    EXECUTOR_BACKENDS,
    ParallelExecutor,
    default_backend,
    default_max_workers,
    resolve_executor,
)
from repro.execution.workers import (
    TaskDescriptor,
    WorkerPool,
    WorkerPoolError,
    shipped_prescription,
)
from repro.execution.retry import (
    ON_ERROR_POLICIES,
    RetryPolicy,
    call_with_timeout,
)
from repro.observability import (
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    summarize_spans,
)

#: What the fan-out entry points return per task.
RunOutcome = RunResult | TaskFailure

#: The ``RunResult.extra`` key a worker's serialized span trees travel
#: under; popped (and grafted into the parent tracer) by ``run_many``.
TRACE_EXTRA_KEY = "trace"
#: The ``RunResult.extra`` key the per-task span summary is kept under
#: (survives into JSON reports).
TRACE_SUMMARY_KEY = "trace_summary"


@dataclass(frozen=True)
class RunnerOptions:
    """Execution policy for one runner, fixed when the runner is built,
    and the one place its values are checked (a spec's too)."""

    repeats: int = 1
    warmup_runs: int = 0
    #: Fan-out backend for independent runs: "serial", "thread",
    #: "process".  Defaults to "serial" unless the ``REPRO_EXECUTOR``
    #: environment variable names another backend.
    executor: str = field(default_factory=default_backend)
    #: Worker count for the pooled backends; None means one per CPU.
    max_workers: int | None = None
    #: What a task that exhausts its attempts does to the batch:
    #: "abort" re-raises (fail-fast, the historical semantics) while
    #: "continue" captures a TaskFailure and completes the batch.
    on_error: str = "abort"
    #: Extra attempts after the first (0 = never retry).
    retries: int = 0
    #: Base backoff before the second attempt; grows exponentially.
    retry_backoff: float = 0.0
    #: Wall-clock budget per task attempt, in seconds (None = unbounded).
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.repeats <= 0:
            raise ExecutionError(f"repeats must be positive, got {self.repeats}")
        if self.warmup_runs < 0:
            raise ExecutionError(
                f"warmup_runs must be non-negative, got {self.warmup_runs}"
            )
        if self.executor not in EXECUTOR_BACKENDS:
            raise ExecutionError(
                f"unknown executor backend {self.executor!r}; "
                f"available: {', '.join(EXECUTOR_BACKENDS)}"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ExecutionError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        if self.on_error not in ON_ERROR_POLICIES:
            raise ExecutionError(
                f"unknown on_error policy {self.on_error!r}; "
                f"available: {', '.join(ON_ERROR_POLICIES)}"
            )
        if self.retries < 0:
            raise ExecutionError(
                f"retries must be non-negative, got {self.retries}"
            )
        # NaN fails every comparison, so these range tests refuse it too.
        if not 0 <= self.retry_backoff < math.inf:
            raise ExecutionError(
                "retry_backoff must be finite and non-negative, "
                f"got {self.retry_backoff}"
            )
        if self.task_timeout is not None and not 0 < self.task_timeout < math.inf:
            raise ExecutionError(
                "task_timeout must be finite and positive, "
                f"got {self.task_timeout}"
            )

    def retry_policy(self) -> RetryPolicy:
        """The retry policy these options describe."""
        return RetryPolicy(
            max_attempts=self.retries + 1, backoff_seconds=self.retry_backoff
        )


@dataclass
class RunTask:
    """One independent run request, ready to be fanned out.

    A plain-data description (picklable as long as the prescription is)
    of everything :meth:`TestRunner.run_task` needs, so a batch of tasks
    can be dispatched to any executor backend and merged in submission
    order.  :func:`repro.execution.plan.resolve` makes them.
    """

    prescription: Prescription | str
    engine_name: str
    volume_override: int | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    #: How to build this task's engine; None is the bare registry
    #: engine.  The only way an engine is ever configured.
    configuration: SystemConfiguration | None = None
    #: Parallel data-generator partitions (velocity override).
    data_partitions: int | None = None
    #: Record-batch size: when set, the data set is bound as a lazily
    #: streaming source (bounded memory) instead of a materialized list.
    chunk_size: int | None = None
    #: The request-side entries of the run-store series key: the
    #: requested ``layout``, the tuning profile's ``fingerprint()`` and,
    #: for a generator that declares one, its ``generation`` version,
    #: passed as keywords to
    #: :func:`repro.analysis.store.spec_fingerprint` (which drops the
    #: row/normal defaults, so historical series stay intact).  Purely a
    #: recording annotation — the options themselves travel in
    #: ``configuration``, and what the engine reports having executed
    #: never feeds the key.
    series: dict[str, Any] = field(default_factory=dict)


class TestRunner:
    """Executes prescribed tests and aggregates their metrics."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    def __init__(
        self,
        test_generator: TestGenerator | None = None,
        options: RunnerOptions | None = None,
    ) -> None:
        self.test_generator = test_generator or TestGenerator()
        self._options = options or RunnerOptions()
        self.suite = MetricSuite.standard()
        self._executor: ParallelExecutor | None = None
        self._worker_pool: WorkerPool | None = None

    # ------------------------------------------------------------------

    @property
    def options(self) -> RunnerOptions:
        """The policy this runner was built with; another is another runner."""
        return self._options

    @property
    def executor(self) -> ParallelExecutor:
        """The fan-out backend the options select (created lazily, once)."""
        if self._executor is None:
            self._executor = resolve_executor(
                self.options.executor, self.options.max_workers
            )
        return self._executor

    def close(self) -> None:
        """Release pooled executor workers and the warm worker pool."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._worker_pool is not None:
            self._worker_pool.shutdown()
            self._worker_pool = None

    def __enter__(self) -> "TestRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _run(self, task: RunTask) -> RunResult:
        """One attempt at ``task``: its test, warmups and repeats.

        The test is generated once, its engine built as the task's
        ``configuration`` says, and its data set served from the
        dataset cache when an identical deterministic request already
        ran (a lazily streaming source when ``chunk_size`` is set;
        determinism makes every execution see the same records either
        way).  Each of the ``warmup_runs + repeats`` executions gets an
        engine of its own: the one ``generate`` built serves the first,
        :meth:`TestGenerator.build_engine` builds the rest.
        """
        tracer = current_tracer()
        prescription_name, _ = self._task_identity(task)
        with tracer.span(
            "run", prescription=prescription_name, engine=task.engine_name
        ):
            with tracer.span("test-generation"):
                test = self.test_generator.generate(
                    task.prescription,
                    task.engine_name,
                    task.volume_override,
                    task.data_partitions,
                    task.chunk_size,
                    task.configuration,
                )
            warmups = self.options.warmup_runs
            workload_results = []
            for number in range(warmups + self.options.repeats):
                warmup = number < warmups
                with tracer.span(
                    "warmup" if warmup else "repeat",
                    index=number if warmup else number - warmups,
                ):
                    if number:  # the first runs on the engine generate built
                        test = replace(
                            test,
                            engine=self.test_generator.build_engine(
                                task.engine_name, task.configuration
                            ),
                        )
                    result = test.run(**task.overrides)
                if not warmup:
                    workload_results.append(result)
            return RunResult.from_workload_results(
                test.name, workload_results, self.suite
            )

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------

    @staticmethod
    def _task_identity(task: RunTask) -> tuple[str, str]:
        """(prescription name, workload name) for keys and failure records."""
        if isinstance(task.prescription, str):
            return task.prescription, task.prescription
        return task.prescription.name, task.prescription.workload

    def run_task(
        self,
        task: RunTask,
        *,
        index: int = 0,
        trace: bool = False,
        queue_wait: float = 0.0,
    ) -> RunOutcome:
        """One task to its outcome — the only place a task attempt happens.

        Every transport calls this: the in-process executors (serial,
        thread) through :meth:`run_many`, process workers through
        :meth:`~repro.execution.workers.WorkerContext.run`.

        Under this runner's options, each attempt executes inside a
        :func:`fault_attempt` scope (so injected faults key their seeded
        decisions on the task and the attempt index — identically on
        every backend) and, when ``task_timeout`` is set, inside a
        wall-clock bound.  The loop retries any failure while attempts
        last, sleeping the deterministic backoff schedule; then
        ``on_error`` decides between re-raising (``abort``) and
        returning a :class:`TaskFailure` (``continue``).

        With ``trace`` on, the task records into a task-local tracer
        (keeping worker-thread spans out of the shared tracer's
        thread-local stacks) under a ``task`` span carrying
        ``queue_wait`` — measured by the transport, whose clock it is —
        the attempt count and the final status; the finished trees
        travel back in the outcome payload for ``run_many`` to graft.
        """
        prescription_name, workload_name = self._task_identity(task)
        task_key = f"{prescription_name}@{task.engine_name}"
        tracer = Tracer() if trace else NULL_TRACER
        policy = self.options.retry_policy()

        def attempt_once(attempt: int) -> RunResult:
            with fault_attempt(task_key, attempt):
                return self._run(task)

        with tracer.activate(), tracer.span(
            "task", index=index, engine=task.engine_name
        ) as span:
            span.set(queue_wait_seconds=queue_wait)
            outcome: RunOutcome | None = None
            error: BaseException | None = None
            for attempt in range(policy.max_attempts):
                attempts = attempt + 1
                try:
                    # partial, not a closure: a timed-out attempt's helper
                    # thread may outlive this iteration.
                    outcome = call_with_timeout(
                        partial(attempt_once, attempt),
                        self.options.task_timeout,
                    )
                    break
                except Exception as caught:  # noqa: BLE001 — every failure retries
                    error = caught
                    tracer.count("task.failed_attempts")
                    if attempts >= policy.max_attempts:
                        break
                    tracer.count("task.retries")
                    delay = policy.delay(attempts, task_key)
                    if delay > 0:
                        with tracer.span(
                            "backoff", attempt=attempts, seconds=delay
                        ):
                            time.sleep(delay)
            if outcome is not None:
                if policy.max_attempts > 1:
                    outcome.extra["attempts"] = attempts
                span.set(attempts=attempts, status="ok")
            else:
                span.set(
                    attempts=attempts,
                    status="failed",
                    error=type(error).__name__,
                )
                if self.options.on_error == "abort":
                    raise error
                outcome = TaskFailure.from_exception(
                    test_name=task_key,
                    workload=workload_name,
                    engine=task.engine_name,
                    error=error,
                    attempts=attempts,
                )
        if trace:
            outcome.extra[TRACE_EXTRA_KEY] = [
                root.to_dict() for root in tracer.roots()
            ]
        return outcome

    def run_many(self, tasks: list[RunTask]) -> list[RunOutcome]:
        """Run independent tasks on the configured executor backend.

        Pick a transport, graft.  Every transport calls :meth:`run_task`
        once per task and returns the outcomes in submission order, so
        every backend is a drop-in replacement for the serial loop.
        ``serial`` and ``thread`` map over this runner in-process
        (sharing its dataset cache); ``process`` streams lightweight
        descriptors to a warm worker pool that is kept alive across
        calls (see :mod:`repro.execution.workers`) and that received
        this runner's data sets when it was created.

        The failure policy is the options', which :meth:`run_task`
        applies: ``on_error`` selects abort/continue semantics,
        ``retries``/``retry_backoff`` give the retry policy.  Under
        ``on_error="continue"`` the returned list holds a
        :class:`TaskFailure` in the slot of every task that exhausted
        its attempts — on all three backends.

        When tracing is active, the parent grafts every task's finished
        span tree here in submission order.  Nothing is recorded here: a
        door that records passes the outcomes to :func:`record_outcomes`.

        The cyclic garbage collector is paused for the batch
        (:func:`repro._util.collector_paused`, DESIGN §3.21); a process
        worker pauses its own per task.
        """
        tasks = list(tasks)
        tracer = current_tracer()
        with collector_paused():
            if self.options.executor == "process" and len(tasks) > 1:
                outcomes = self._run_on_worker_pool(tasks, tracer)
            else:
                submitted = time.perf_counter()

                def in_process(indexed: tuple[int, RunTask]) -> RunOutcome:
                    index, task = indexed
                    return self.run_task(
                        task,
                        index=index,
                        trace=tracer.enabled,
                        queue_wait=max(0.0, time.perf_counter() - submitted),
                    )

                # Pooled executors run a batch of one inline, so a single
                # task never pays for a pool on any backend.
                outcomes = self.executor.map(in_process, enumerate(tasks))
            if tracer.enabled:
                self._graft_task_traces(tracer, outcomes)
        return outcomes

    @staticmethod
    def _graft_task_traces(tracer: Tracer, outcomes: list[RunOutcome]) -> None:
        """Adopt per-task span trees into the parent tracer, in order.

        The raw trees are popped from the outcome payload (they have
        reached their destination); a compact per-name summary stays
        behind for JSON reports.  Captured failures carry trees too —
        their attempts are part of the run's timeline.
        """
        for outcome in outcomes:
            payloads = outcome.extra.pop(TRACE_EXTRA_KEY, None)
            if not payloads:
                continue
            spans = [Span.from_dict(payload) for payload in payloads]
            tracer.graft(spans)
            outcome.extra[TRACE_SUMMARY_KEY] = summarize_spans(spans)

    def cache_delta(
        self, before: CacheStats, outcomes: list[RunOutcome]
    ) -> CacheStats:
        """The dataset-cache lookups of the batch that made ``outcomes``.

        ``before`` is this runner's cache snapshot from before the
        batch.  A process batch looks up in its workers' caches, so each
        outcome's ``extra["worker_cache"]`` delta counts beside the
        parent's; the ``entries`` gauge stays the parent's.
        """
        delta = self.test_generator.dataset_cache.stats().since(before)
        workers = [
            outcome.extra["worker_cache"]
            for outcome in outcomes
            if "worker_cache" in outcome.extra
        ]
        return replace(
            delta,
            hits=delta.hits + sum(worker["hits"] for worker in workers),
            misses=delta.misses + sum(worker["misses"] for worker in workers),
        )

    # ------------------------------------------------------------------
    # Process-backend plumbing
    # ------------------------------------------------------------------

    def _ensure_worker_pool(self) -> WorkerPool:
        """The runner's warm pool, built at its first process batch.

        Its workers' runners are built from this runner's options,
        which are fixed, so the pool never goes stale: it lives until
        :meth:`close`.  Engine configurations travel on each task.
        """
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(
                replace(self.options, executor="serial"),
                self.options.max_workers or default_max_workers(),
            )
        return self._worker_pool

    def _run_on_worker_pool(
        self, tasks: list[RunTask], tracer: Tracer
    ) -> list[RunOutcome]:
        """The process transport: one descriptor per task to warm workers.

        A descriptor is the task itself (prescription in its shipped
        form) plus what only the transport knows; the policy is the
        pool's.  An engine configuration that cannot be pickled cannot
        run on this backend at all and raises :class:`WorkerPoolError`.
        """
        unpicklable = sorted(
            {
                task.engine_name
                for task in tasks
                if task.configuration is not None
                and not _picklable(task.configuration)
            }
        )
        if unpicklable:
            raise WorkerPoolError(
                "the process backend cannot ship the configuration of "
                f"engine(s) {unpicklable} to its workers"
            )
        pool = self._ensure_worker_pool()
        # Wall-clock, not perf_counter: the stamp crosses the process
        # boundary and perf_counter epochs are per-process.
        submitted_wall = time.time()
        descriptors = [
            TaskDescriptor(
                task=replace(
                    task, prescription=self._shipped_task_prescription(task)
                ),
                task_index=index,
                submitted_wall=submitted_wall,
                trace=tracer.enabled,
                pool_batch=pool.batches,
            )
            for index, task in enumerate(tasks)
        ]
        if tracer.enabled:
            for descriptor in descriptors:
                descriptor.payload_bytes = len(pickle.dumps(descriptor))
            tracer.count("pool_reuse", pool.batches)
        datasets = {} if pool.started else self._pool_datasets(tasks)
        return pool.run_batch(descriptors, datasets)

    def _resolved_prescription(self, task: RunTask) -> Prescription:
        prescription = task.prescription
        if isinstance(prescription, str):
            return self.test_generator.repository.get(prescription)
        return prescription

    def _shipped_task_prescription(self, task: RunTask) -> Prescription | str:
        """What the descriptor carries: a worker-resolvable name or value.

        Resolution failures (unknown name) ship unchanged so the worker
        raises them inside its attempt loop — where ``on_error`` policy
        and failure capture apply, exactly like the serial path.
        """
        try:
            return shipped_prescription(self._resolved_prescription(task))
        except Exception:  # noqa: BLE001 - worker reports the real error
            return task.prescription

    def _pool_datasets(self, tasks: list[RunTask]) -> dict[tuple, Any]:
        """The data sets a new pool's workers start with, by cache key.

        Every task key this runner's cache holds, read without touching
        its counters.  A key two or more tasks share is generated here
        first, so the batch pays one generation instead of one per
        worker.  A streaming task, or one that does not resolve here,
        has no key: its worker regenerates, or reports the error.
        """
        requests: dict[tuple, list[tuple]] = {}
        for task in tasks:
            if task.chunk_size is None:
                with contextlib.suppress(Exception):
                    request = (
                        self._resolved_prescription(task).data,
                        task.volume_override,
                        task.data_partitions,
                    )
                    key = self.test_generator.dataset_key(*request)
                    requests.setdefault(key, []).append(request)
        cache = self.test_generator.dataset_cache
        datasets = {}
        for key, same in requests.items():
            if len(same) > 1 and cache.peek(key) is None:
                # Silently: task traces keep one root per task, and each
                # worker's select-data span accounts for it (as a hit).
                with contextlib.suppress(Exception), NULL_TRACER.activate():
                    self.test_generator.select_data(*same[0])
            dataset = cache.peek(key)
            if dataset is not None:
                datasets[key] = dataset
        return datasets


def _picklable(value: Any) -> bool:
    """Whether ``value`` survives the trip to a worker process."""
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 - any failure means "cannot ship"
        return False
    return True


def record_outcomes(
    store: Any,
    tasks: list[RunTask],
    outcomes: list[RunOutcome],
    options: RunnerOptions,
) -> list[Any]:
    """Persist a batch's outcomes into ``store``, in submission order.

    The one place a series key is built: each fingerprint comes from
    the task's own request (its ``series`` annotation included) plus the
    runner options, so the same request recorded by the five-step
    process, the service or an ablation lands in one series.
    Returns the new :class:`~repro.analysis.store.RunRecord` s.
    """
    from repro.analysis.store import environment_fingerprint, spec_fingerprint

    environment = environment_fingerprint()
    records = []
    for task, outcome in zip(tasks, outcomes):
        prescription_name, workload_name = TestRunner._task_identity(task)
        fingerprint = spec_fingerprint(
            prescription_name,
            task.engine_name,
            workload=outcome.workload or workload_name,
            volume=task.volume_override,
            repeats=options.repeats,
            params=task.overrides,
            chunk_size=task.chunk_size,
            executor=options.executor,
            data_partitions=task.data_partitions,
            **task.series,
        )
        records.append(
            store.record_outcome(outcome, fingerprint, environment=environment)
        )
    return records
