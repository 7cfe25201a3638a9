"""The test runner (Execution step of Figure 1).

Runs prescribed tests with warmup and repeats, computes metric statistics
through the standard metric suite, and returns
:class:`~repro.core.results.RunResult` objects ready for analysis.

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
exponential backoff) and optional per-task timeout, uniformly on all
three backends.  The ``on_error`` policy decides what a task that
exhausts its attempts does to the batch: ``"abort"`` (the default)
re-raises — the historical fail-fast semantics — while ``"continue"``
captures a :class:`~repro.core.results.TaskFailure` in the task's
submission-order slot and lets the rest of the batch complete.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any

from repro.core.errors import ExecutionError
from repro.core.metrics import MetricSuite
from repro.core.prescription import Prescription
from repro.core.results import RunResult, TaskFailure
from repro.core.test_generator import PrescribedTest, TestGenerator
from repro.datagen.handoff import DatasetHandle
from repro.engines.faults import fault_attempt
from repro.execution.config import SystemConfiguration, prepare_input
from repro.execution.parallel import (
    EXECUTOR_BACKENDS,
    ParallelExecutor,
    default_backend,
    default_max_workers,
    resolve_executor,
)
from repro.execution.workers import (
    TaskDescriptor,
    WorkerInit,
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
from repro.workloads.base import WorkloadResult

#: What the fan-out entry points return per task.
RunOutcome = RunResult | TaskFailure

#: The ``RunResult.extra`` key a worker's serialized span trees travel
#: under; popped (and grafted into the parent tracer) by ``run_many``.
TRACE_EXTRA_KEY = "trace"
#: The ``RunResult.extra`` key the per-task span summary is kept under
#: (survives into JSON reports).
TRACE_SUMMARY_KEY = "trace_summary"


@dataclass
class RunnerOptions:
    """Execution policy for one runner."""

    repeats: int = 1
    warmup_runs: int = 0
    #: Validate format convertibility before running (Section 2.3).
    check_format: bool = True
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
        if self.retry_backoff < 0:
            raise ExecutionError(
                f"retry_backoff must be non-negative, got {self.retry_backoff}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExecutionError(
                f"task_timeout must be positive, got {self.task_timeout}"
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
    of everything :meth:`TestRunner.run` needs, so a batch of tasks can
    be dispatched to any executor backend and merged in submission
    order.
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
    #: requested ``layout`` and the tuning profile's ``fingerprint()``,
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
        suite: MetricSuite | None = None,
        store: Any = None,
    ) -> None:
        self.test_generator = test_generator or TestGenerator()
        self.options = options or RunnerOptions()
        self.suite = suite or MetricSuite.standard()
        #: Optional :class:`~repro.analysis.store.RunStore`: when set,
        #: every ``run_many`` batch auto-records its outcomes through
        #: :func:`record_outcomes` (the five-step process calls that at
        #: its analysis step instead, so it leaves this unset).
        self.store = store
        self._executor: ParallelExecutor | None = None
        self._executor_key: tuple[str, int | None] | None = None
        self._worker_pool: WorkerPool | None = None
        self._worker_pool_key: tuple[str, int | None] | None = None

    # ------------------------------------------------------------------

    @property
    def executor(self) -> ParallelExecutor:
        """The fan-out backend the options select (created lazily).

        Mutating ``options.executor`` / ``options.max_workers`` after
        the first access is honored: the cached executor is shut down
        and re-resolved whenever the options no longer match it.
        """
        wanted = (self.options.executor, self.options.max_workers)
        if self._executor is not None and self._executor_key != wanted:
            self._executor.shutdown()
            self._executor = None
        if self._executor is None:
            self._executor = resolve_executor(*wanted)
            self._executor_key = wanted
        return self._executor

    def close(self) -> None:
        """Release pooled executor workers and the warm worker pool."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._worker_pool is not None:
            self._worker_pool.shutdown()
            self._worker_pool = None
            self._worker_pool_key = None

    def __enter__(self) -> "TestRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _build_engine(
        self, engine_name: str, configuration: SystemConfiguration | None = None
    ):
        if configuration is not None:
            return configuration.build()
        return self.test_generator.engines.create(engine_name)

    def run_once(self, test: PrescribedTest, **overrides: Any) -> WorkloadResult:
        """One execution of an already-bound prescribed test."""
        if self.options.check_format:
            prepare_input(test.dataset, test.engine)
        return test.run(**overrides)

    def run(
        self,
        prescription: Prescription | str,
        engine_name: str,
        volume_override: int | None = None,
        *,
        configuration: SystemConfiguration | None = None,
        data_partitions: int | None = None,
        chunk_size: int | None = None,
        **overrides: Any,
    ) -> RunResult:
        """Generate and run one prescribed test with repeats.

        The data set is generated once (same data every repeat — and
        served from the dataset cache when an identical deterministic
        request already ran); the engine is rebuilt per repeat for
        independence.  With ``chunk_size`` set, the test binds a lazily
        streaming source instead — determinism makes every repeat see
        the same records either way.
        """
        tracer = current_tracer()
        prescription_name = (
            prescription if isinstance(prescription, str) else prescription.name
        )
        with tracer.span(
            "run", prescription=prescription_name, engine=engine_name
        ):
            with tracer.span("test-generation"):
                test = self.test_generator.generate(
                    prescription,
                    engine_name,
                    volume_override,
                    data_partitions,
                    chunk_size,
                )
            for index in range(self.options.warmup_runs):
                with tracer.span("warmup", index=index):
                    fresh = self._rebind(test, engine_name, configuration)
                    self.run_once(fresh, **overrides)
            workload_results = []
            for index in range(self.options.repeats):
                with tracer.span("repeat", index=index):
                    fresh = self._rebind(test, engine_name, configuration)
                    workload_results.append(self.run_once(fresh, **overrides))
            return RunResult.from_workload_results(
                test.name, workload_results, self.suite
            )

    def _rebind(
        self,
        test: PrescribedTest,
        engine_name: str,
        configuration: SystemConfiguration | None = None,
    ) -> PrescribedTest:
        """The same prescription and data on a fresh engine instance."""
        return PrescribedTest(
            prescription=test.prescription,
            engine=self._build_engine(engine_name, configuration),
            workload=test.workload,
            dataset=test.dataset,
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
        policy: RetryPolicy,
        on_error: str,
        *,
        index: int = 0,
        trace: bool = False,
        queue_wait: float = 0.0,
    ) -> RunOutcome:
        """One task to its outcome — the only place a task attempt happens.

        Every transport calls this: the in-process executors (serial,
        thread) through :meth:`run_many`, process workers through
        :meth:`~repro.execution.workers.WorkerContext.run`.

        Each attempt executes inside a :func:`fault_attempt` scope (so
        injected faults key their seeded decisions on the task and the
        attempt index — identically on every backend) and, when a
        per-task timeout is configured, inside a wall-clock bound.  The
        loop retries failures the policy deems retryable, sleeping its
        deterministic backoff schedule; once attempts are exhausted the
        ``on_error`` policy decides between re-raising (``abort``) and
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

        def attempt_once(attempt: int) -> RunResult:
            with fault_attempt(task_key, attempt):
                return self.run(
                    task.prescription,
                    task.engine_name,
                    task.volume_override,
                    configuration=task.configuration,
                    data_partitions=task.data_partitions,
                    chunk_size=task.chunk_size,
                    **task.overrides,
                )

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
                except Exception as caught:  # noqa: BLE001 — policy-filtered
                    error = caught
                    tracer.count("task.failed_attempts")
                    if not policy.should_retry(caught, attempts):
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
                if on_error == "abort":
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

        Validate, pick a transport, graft, record.  Every transport
        calls :meth:`run_task` once per task and returns the outcomes
        in submission order, so every backend is a drop-in replacement
        for the serial loop.  ``serial`` and ``thread`` map over this
        runner in-process (sharing its dataset cache); ``process``
        streams lightweight descriptors to a warm worker pool that is
        kept alive across calls (see :mod:`repro.execution.workers`),
        shipping data sets as shared-memory/spill-file handles or cache
        fingerprints instead of pickled rows.

        The failure policy is the options': ``on_error`` selects
        abort/continue semantics, ``retries``/``retry_backoff`` give the
        retry policy.  Under ``on_error="continue"`` the returned list
        holds a :class:`TaskFailure` in the slot of every task that
        exhausted its attempts — on all three backends.

        When tracing is active, the parent grafts every task's finished
        span tree here in submission order.
        """
        tasks = list(tasks)
        on_error = self.options.on_error
        policy = self.options.retry_policy()
        tracer = current_tracer()
        if self.options.executor == "process" and len(tasks) > 1:
            outcomes = self._run_on_worker_pool(
                tasks, policy, on_error, tracer
            )
        else:
            submitted = time.perf_counter()

            def in_process(indexed: tuple[int, RunTask]) -> RunOutcome:
                index, task = indexed
                return self.run_task(
                    task,
                    policy,
                    on_error,
                    index=index,
                    trace=tracer.enabled,
                    queue_wait=max(0.0, time.perf_counter() - submitted),
                )

            # Pooled executors run a batch of one inline, so a single
            # task never pays for a pool on any backend.
            outcomes = self.executor.map(in_process, enumerate(tasks))
        if tracer.enabled:
            self._graft_task_traces(tracer, outcomes)
        if self.store is not None:
            record_outcomes(self.store, tasks, outcomes, self.options)
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

    def run_on_engines(
        self,
        prescription: Prescription | str,
        engine_names: list[str],
        volume_override: int | None = None,
        **overrides: Any,
    ) -> list[RunOutcome]:
        """The same prescription across several engines (system view).

        The deterministic data set is generated once and shared by every
        engine through the dataset cache; the hit/miss delta *of this
        call* (not process-lifetime totals) is attached to each
        outcome's ``extra["dataset_cache"]``.  Options with
        ``on_error="continue"`` keep one misbehaving engine from
        discarding the comparison: its slot holds a :class:`TaskFailure`
        while the other engines' results survive.
        """
        tasks = [
            RunTask(prescription, engine_name, volume_override, dict(overrides))
            for engine_name in engine_names
        ]
        cache = self.test_generator.dataset_cache
        before = cache.stats()
        outcomes = self.run_many(tasks)
        delta = cache.stats().since(before)
        for outcome in outcomes:
            outcome.extra["dataset_cache"] = delta.as_dict()
        return outcomes

    # ------------------------------------------------------------------
    # Process-backend plumbing
    # ------------------------------------------------------------------

    def _worker_init(self) -> tuple[WorkerInit, str]:
        """The pool initializer for the current runner state, plus its
        content digest (the pool-identity half of the invalidation key).

        An unpicklable suite degrades to the standard suite in the
        worker.  Engine configurations are not pool state: they travel
        on each task.
        """
        init = WorkerInit(
            options={
                "repeats": self.options.repeats,
                "warmup_runs": self.options.warmup_runs,
                "check_format": self.options.check_format,
                "task_timeout": self.options.task_timeout,
            },
            suite=self.suite if _picklable(self.suite) else None,
        )
        return init, hashlib.sha256(pickle.dumps(init)).hexdigest()

    def _ensure_worker_pool(self) -> WorkerPool:
        """The warm pool matching current options (rebuilt when stale).

        The key pairs the initializer digest (options scalars, suite)
        with ``max_workers``: mutating any of them between ``run_many``
        calls shuts the old pool down and builds a fresh one, exactly
        like the ``executor`` property's behavior.
        """
        init, digest = self._worker_init()
        key = (digest, self.options.max_workers)
        if self._worker_pool is not None and self._worker_pool_key != key:
            self._worker_pool.shutdown()
            self._worker_pool = None
        if self._worker_pool is None:
            max_workers = self.options.max_workers or default_max_workers()
            self._worker_pool = WorkerPool(init, max_workers)
            self._worker_pool_key = key
        return self._worker_pool

    def _run_on_worker_pool(
        self,
        tasks: list[RunTask],
        policy: RetryPolicy,
        on_error: str,
        tracer: Tracer,
    ) -> list[RunOutcome]:
        """The process transport: one descriptor per task to warm workers.

        A descriptor is the task itself (prescription in its shipped
        form) plus what only the transport knows.  The policy ships by
        value.  An engine configuration that cannot be pickled cannot
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
                handle=handle,
                on_error=on_error,
                retry_policy=policy,
                task_index=index,
                submitted_wall=submitted_wall,
                trace=tracer.enabled,
                pool_batch=pool.batches,
            )
            for index, (task, handle) in enumerate(
                zip(tasks, self._dataset_handles(tasks, pool))
            )
        ]
        if tracer.enabled:
            for descriptor in descriptors:
                descriptor.payload_bytes = len(pickle.dumps(descriptor))
            tracer.count("pool_reuse", pool.batches)
        return pool.run_batch(descriptors)

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

    def _dataset_handles(
        self, tasks: list[RunTask], pool: WorkerPool
    ) -> list[DatasetHandle | None]:
        """One handle per task (deduplicated per dataset key).

        Data already resident or spilled in the parent cache ships as
        bytes — serialized once per pool into shared memory, or
        referenced as the existing spill file.  A key missing from the
        cache that two or more tasks share is generated here first, so
        the batch pays one generation instead of one per worker; a key
        only one task needs ships as a bare fingerprint and that worker
        regenerates (and caches) it locally.
        """
        cache = self.test_generator.dataset_cache
        keys: list[tuple | None] = []
        for task in tasks:
            key = None
            # Streaming tasks bypass the cache and get no key; so does
            # anything that fails to resolve here (the worker surfaces
            # the real error with full context).
            if task.chunk_size is None:
                try:
                    key = self.test_generator.dataset_key(
                        self._resolved_prescription(task).data,
                        task.volume_override,
                        task.data_partitions,
                    )
                except Exception:  # noqa: BLE001 - worker reports it
                    pass
            keys.append(key)
        shared = Counter(key for key in keys if key is not None)
        handle_by_key: dict[tuple, DatasetHandle] = {}
        for task, key in zip(tasks, keys):
            if key is None or key in handle_by_key:
                continue
            source = cache.export_source(key)
            if source is None and shared[key] > 1:
                try:
                    # Generate silently: task traces must keep one root
                    # per task, and each worker's own select-data span
                    # already accounts for this data set (as a hit).
                    with NULL_TRACER.activate():
                        self.test_generator.select_data(
                            self._resolved_prescription(task).data,
                            task.volume_override,
                            task.data_partitions,
                        )
                except Exception:  # noqa: BLE001 - worker reports it
                    pass
                else:
                    source = cache.export_source(key)
            handle = None
            if source is not None:
                try:
                    handle = pool.handle_for(key, source)
                except Exception:  # noqa: BLE001 - unpicklable records
                    handle = None
            handle_by_key[key] = handle or pool.fingerprint_handle_for(key)
        return [
            handle_by_key.get(key) if key is not None else None
            for key in keys
        ]


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
    runner options, so the same request recorded by a runner-attached
    store, the five-step process or the service lands in one series.
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
