"""The in-process service client (benchmark-as-a-service, piece 4).

:class:`ServiceClient` is the one blessed way to talk to the
orchestrator — the same object the ``repro-bench serve`` / ``submit`` /
``jobs`` CLI verbs drive::

    from repro.api import BenchmarkSpec, ServiceClient

    with ServiceClient(store_dir=".repro-runs") as client:
        handle = client.submit(BenchmarkSpec("micro-wordcount", volume=200))
        job = handle.wait()
        for outcome in handle.result():
            print(outcome.engine, outcome.status)

A :class:`JobHandle` is a future over one job: ``status()`` polls,
``wait()`` blocks until the lifecycle settles, ``result()`` returns the
batch outcomes (or raises :class:`~repro.core.errors.ServiceError` with
the captured error for failed/cancelled jobs), ``cancel()`` withdraws a
still-queued job, and ``events()`` iterates the lifecycle transitions
as they happen.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ServiceError
from repro.core.spec import BenchmarkSpec
from repro.service.jobs import Job, TERMINAL_STATES
from repro.service.orchestrator import JobEvent, Orchestrator


class JobHandle:
    """A client's view of one submitted job."""

    def __init__(self, job: Job, orchestrator: Orchestrator) -> None:
        self._job = job
        self._orchestrator = orchestrator

    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def job(self) -> Job:
        return self._job

    def status(self) -> str:
        """The job's current lifecycle state."""
        return self._job.state

    def wait(self, timeout: float | None = None) -> Job:
        """Block until the job settles; raises on timeout."""
        return self._orchestrator.wait(self._job.job_id, timeout)

    def result(self, timeout: float | None = None) -> list[Any]:
        """The finished batch's outcomes, in task submission order.

        Blocks like :meth:`wait`.  A ``done`` job returns its outcomes
        — including any captured
        :class:`~repro.core.results.TaskFailure` from an
        ``on_error="continue"`` batch.  A ``failed`` or ``cancelled``
        job raises :class:`ServiceError` carrying what went wrong.
        """
        job = self.wait(timeout)
        if job.state == "done":
            return list(job.outcomes)
        if job.state == "failed":
            raise ServiceError(
                f"job {job.job_id} failed: "
                f"{job.error_type}: {job.error_message}"
            )
        raise ServiceError(f"job {job.job_id} was cancelled")

    def cancel(self) -> bool:
        """Withdraw the job if it is still queued."""
        return self._orchestrator.cancel(self._job.job_id)

    def events(self):
        """Iterate lifecycle transitions (historical, then live) until
        the job goes terminal."""
        return self._orchestrator.watch(self._job.job_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self._job.job_id}, {self._job.state})"


class ServiceClient:
    """Submit, watch, fetch, and cancel benchmark jobs in-process.

    Owns an :class:`Orchestrator` built from the keyword arguments
    (``schedulers``, ``store_dir``, ``queue``, ``tracer``, ...) and
    started lazily on first submit.  Closing the client shuts it down,
    draining queued jobs first.
    """

    def __init__(self, **options: Any) -> None:
        self.orchestrator = Orchestrator(**options)

    def submit(
        self,
        spec: BenchmarkSpec | str,
        *,
        client: str = "anonymous",
        priority: int = 0,
    ) -> JobHandle:
        """Validate, admit, and enqueue; returns immediately.

        May raise :class:`~repro.service.queue.AdmissionError` (load
        shedding — the ``retry_after`` attribute is the resubmission
        hint) or :class:`~repro.core.errors.SpecError` (the spec failed
        Planning-step validation).
        """
        self.orchestrator.start()
        job = self.orchestrator.submit(
            spec, client=client, priority=priority
        )
        return JobHandle(job, self.orchestrator)

    def handle(self, job_id: str) -> JobHandle:
        """Re-attach to a previously submitted job."""
        return JobHandle(self.orchestrator.job(job_id), self.orchestrator)

    def jobs(self) -> list[Job]:
        return self.orchestrator.jobs()

    def status(self, job_id: str) -> str:
        return self.orchestrator.status(job_id)

    def cancel(self, job_id: str) -> bool:
        return self.orchestrator.cancel(job_id)

    def subscribe(self, callback) -> None:
        self.orchestrator.subscribe(callback)

    def close(self) -> None:
        """Drain and shut down the orchestrator (idempotent)."""
        self.orchestrator.shutdown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "JobEvent",
    "JobHandle",
    "ServiceClient",
    "TERMINAL_STATES",
]
