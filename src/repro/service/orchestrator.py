"""The job orchestrator (benchmark-as-a-service, piece 3).

Turns the runner into a worker: a pool of scheduler threads drains the
:class:`~repro.service.queue.AdmissionQueue`, drives each job's spec
through the existing :class:`~repro.execution.runner.TestRunner`
(per-scheduler runners are kept warm across jobs, so the process
backend's worker pools amortize exactly as they do under ``run_many``),
records outcomes into the :class:`~repro.analysis.store.RunStore` through
:func:`~repro.execution.runner.record_outcomes` when the spec asks, and
appends every lifecycle transition to the append-only job log next to
the store.

Observability: each job executes under a ``job`` span on the
orchestrator's tracer — queue-wait seconds, priority, and a
``queue.depth`` counter (the depth observed when the job was admitted
to the queue) ride on it, so a traced burst shows exactly how deep the
backlog ran.  Subscribers get a :class:`JobEvent` per transition via
:meth:`Orchestrator.subscribe` (push) or the per-job iterator on
:class:`~repro.service.client.JobHandle` (pull).

Parity contract: a job's outcomes — metrics, extras, and recorded
run-store entries — are exactly what ``api.run`` of the same spec
produces, because both execute the plan
:func:`~repro.execution.plan.resolve` builds from it; the service owns
the lifecycle, not the semantics.  One extra is not a result and is the
exception: ``extra["model"]`` (did this process train the generator's
model or find it fitted) is stamped by the five-step process from its
data-generation step, which a job does not have.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import ServiceError
from repro.core.prescription import PrescriptionRepository, builtin_repository
from repro.core.results import TaskFailure
from repro.core.spec import BenchmarkSpec
from repro.observability import NULL_TRACER, Tracer
from repro.service.jobs import Job, JobLog
from repro.service.queue import AdmissionQueue


@dataclass
class JobEvent:
    """One observed lifecycle transition."""

    job_id: str
    state: str
    at: float
    detail: dict[str, Any] = field(default_factory=dict)


class Orchestrator:
    """Schedules queued jobs onto warm runners; owns the job lifecycle."""

    def __init__(
        self,
        *,
        schedulers: int = 2,
        queue: AdmissionQueue | None = None,
        repository: PrescriptionRepository | None = None,
        store_dir: str | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if schedulers <= 0:
            raise ServiceError(
                f"schedulers must be positive, got {schedulers}"
            )
        self.schedulers = schedulers
        self.queue = queue or AdmissionQueue()
        self.repository = repository or builtin_repository()
        self.store_dir = store_dir
        self.tracer = tracer or NULL_TRACER
        from repro.analysis.store import resolve_store_dir

        # The log numbers the jobs: every service on the store shares it.
        self.job_log = JobLog(resolve_store_dir(store_dir))
        self._jobs: dict[str, Job] = {}
        self._threads: list[threading.Thread] = []
        self._runners: list[Any] = []
        self._runner_lock = threading.Lock()
        self._local = threading.local()
        self._subscribers: list[Callable[[JobEvent], None]] = []
        self._cond = threading.Condition()
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Orchestrator":
        """Spawn the scheduler threads (idempotent)."""
        with self._cond:
            if self._started:
                return self
            if self._closing:
                raise ServiceError("orchestrator is already shut down")
            self._started = True
        for index in range(self.schedulers):
            thread = threading.Thread(
                target=self._scheduler_loop,
                name=f"repro-scheduler-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self) -> None:
        """Stop accepting work, finish what is queued, join the schedulers.

        Queued jobs run to completion before the schedulers exit, and
        running jobs always finish — the runner has no preemption, and
        killing mid-benchmark would corrupt results.  A job to drop is
        withdrawn with :meth:`cancel` first.
        """
        self.queue.close()
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        with self._runner_lock:
            runners, self._runners = self._runners, []
        for runner in runners:
            runner.close()

    def __enter__(self) -> "Orchestrator":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: BenchmarkSpec | str,
        *,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Job:
        """Validate, admit, and enqueue one job.

        Validation happens *here* — at the service door, the Planning
        step of Figure 1 — so a misconfigured spec is rejected before
        it occupies a queue slot.  Admission may raise
        :class:`~repro.service.queue.AdmissionError` (load shedding).
        """
        if isinstance(spec, str):
            spec = BenchmarkSpec(prescription=spec)
        spec.validate(self.repository)
        # Enqueue and log under the lock the schedulers admit under: a
        # scheduler may take the job at once, but cannot log ``admitted``
        # ahead of this ``queued`` line (which carries the job itself).
        job = Job(spec=spec, client=client, priority=priority)
        with self._cond:
            self.job_log.submit(job, self.queue.submit)
            self._jobs[job.job_id] = job
        self._notify(JobEvent(job.job_id, "queued", job.submitted_at))
        return job

    def job(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(
                    f"unknown job {job_id!r}; known: {sorted(self._jobs)}"
                ) from None

    def jobs(self) -> list[Job]:
        """Every job this orchestrator has accepted, submission order."""
        with self._cond:
            return list(self._jobs.values())

    def status(self, job_id: str) -> str:
        return self.job(job_id).state

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job is terminal; raises on timeout."""
        job = self.job(job_id)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._cond:
            while not job.terminal:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServiceError(
                        f"timed out after {timeout}s waiting for job "
                        f"{job_id} (state: {job.state})"
                    )
                self._cond.wait(remaining)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; returns whether it took effect.

        Admitted/running jobs are past the point of no return (no
        preemption); terminal jobs are already settled.  A successful
        cancel releases the client's quota slot and leaves a tombstone
        the queue discards.
        """
        job = self.job(job_id)
        with self._cond:
            if job.state != "queued":
                return False
            at = self._enter(job, "cancelled")
        self.queue.release(job.client)
        self._notify(JobEvent(job.job_id, "cancelled", at))
        return True

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[JobEvent], None]) -> None:
        """Push every future :class:`JobEvent` to ``callback``.

        Called synchronously from scheduler threads — keep callbacks
        quick; a raising callback is dropped from the list rather than
        poisoning the scheduler.
        """
        with self._cond:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[JobEvent], None]) -> None:
        with self._cond:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def _notify(self, event: JobEvent) -> None:
        with self._cond:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(event)
            except Exception:  # noqa: BLE001 — observers must not kill work
                self.unsubscribe(callback)

    def watch(self, job_id: str):
        """Yield the job's transitions (historical, then live) until
        it goes terminal — the pull-style twin of :meth:`subscribe`."""
        job = self.job(job_id)
        seen = 0
        while True:
            with self._cond:
                while len(job.history) == seen and not job.terminal:
                    self._cond.wait()
                fresh = job.history[seen:]
                seen = len(job.history)
            for state, at in fresh:
                yield JobEvent(job.job_id, state, at)
            if job.terminal and seen == len(job.history):
                return

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        # Blocks until there is a job; None means shutdown() closed the
        # queue and everything queued before that has been taken.
        while (job := self.queue.take()) is not None:
            self._run_job(job)

    def _enter(
        self, job: Job, state: str, detail: dict[str, Any] | None = None
    ) -> float:
        """Move ``job`` to ``state``, log it, then wake waiters (caller
        holds ``_cond``).  In that order, so whoever observes a state —
        a client returning from ``result()``, the next scheduler — finds
        it already in ``jobs.jsonl`` and the log replays in order."""
        at = job.transition(state)
        self.job_log.append(job, state, detail)
        self._cond.notify_all()
        return at

    def _transition(
        self, job: Job, state: str, detail: dict[str, Any] | None = None
    ) -> None:
        with self._cond:
            at = self._enter(job, state, detail)
        self._notify(JobEvent(job.job_id, state, at, detail or {}))

    def _run_job(self, job: Job) -> None:
        # Check-and-admit atomically: a cancel() racing this scheduler
        # either wins (we see "cancelled" and drop the job — its quota
        # slot is already released) or loses (the job is admitted and
        # past the point of no return).
        with self._cond:
            if job.state != "queued":
                return
            at = self._enter(job, "admitted")
        self._notify(JobEvent(job.job_id, "admitted", at))
        with self.tracer.activate():
            with self.tracer.span(
                "job",
                job_id=job.job_id,
                prescription=job.spec.prescription,
                client=job.client,
                priority=job.priority,
            ) as span:
                if span:
                    span.set(
                        queue_wait_seconds=job.queue_wait_seconds() or 0.0
                    )
                    span.incr("queue.depth", job.queue_depth_at_submit)
                self._transition(job, "running")
                try:
                    outcomes = self._execute(job.spec)
                except Exception as error:  # noqa: BLE001 — job-scoped
                    job.error_type = type(error).__name__
                    job.error_message = str(error)
                    if span:
                        span.set(status="failed", error=job.error_type)
                    self._transition(
                        job,
                        "failed",
                        {
                            "error_type": job.error_type,
                            "error_message": job.error_message,
                        },
                    )
                else:
                    from repro.analysis.store import RECORD_ID_EXTRA_KEY

                    job.outcomes = outcomes
                    job.record_ids = [
                        outcome.extra[RECORD_ID_EXTRA_KEY]
                        for outcome in outcomes
                        if RECORD_ID_EXTRA_KEY in outcome.extra
                    ]
                    job.failure_count = sum(
                        1 for outcome in outcomes
                        if isinstance(outcome, TaskFailure)
                    )
                    if span:
                        span.set(
                            status="done",
                            tasks=len(outcomes),
                            failures=job.failure_count,
                        )
                    detail: dict[str, Any] = {"tasks": len(outcomes)}
                    if job.record_ids:
                        detail["record_ids"] = list(job.record_ids)
                    if job.failure_count:
                        detail["failure_count"] = job.failure_count
                    self._transition(job, "done", detail)
        self.queue.release(job.client)

    # ------------------------------------------------------------------
    # Execution (the worker half: spec -> runner batch)
    # ------------------------------------------------------------------

    def _execute(self, spec: BenchmarkSpec) -> list[Any]:
        """One spec through the warm per-scheduler runner.

        The spec is resolved by the same
        :func:`~repro.execution.plan.resolve` the direct five-step
        process uses, so engines, metrics and series keys match it; when
        the spec records, its outcomes go through the same
        :func:`~repro.execution.runner.record_outcomes`.  The runner (and
        its warm process pool, dataset cache, and executor) persists on
        this scheduler thread across jobs with equal runner options.
        """
        from repro.analysis.store import RunStore
        from repro.execution.plan import resolve
        from repro.execution.runner import record_outcomes

        plan = resolve(spec, self.repository, store_dir=self.store_dir)
        outcomes = self._runner_for(plan.options).run_many(plan.tasks)
        if plan.store_dir is not None:
            store = RunStore(plan.store_dir)
            record_outcomes(store, plan.tasks, outcomes, plan.options)
        return outcomes

    def _runner_for(self, options: Any):
        """This scheduler thread's runner for ``options``.

        A job whose :class:`~repro.execution.runner.RunnerOptions`
        differ closes the thread's previous runner (releasing its
        executor and warm pool) and builds a fresh one.
        """
        from repro.core.test_generator import TestGenerator
        from repro.execution.runner import TestRunner

        cached = getattr(self._local, "runner", None)
        if cached is not None and cached.options == options:
            return cached
        if cached is not None:
            cached.close()
            with self._runner_lock:
                if cached in self._runners:
                    self._runners.remove(cached)
        runner = TestRunner(
            test_generator=TestGenerator(self.repository),
            options=options,
        )
        self._local.runner = runner
        with self._runner_lock:
            self._runners.append(runner)
        return runner
