"""Admission control (benchmark-as-a-service, piece 2).

A service built to survive heavy traffic cannot let every submission
block until a scheduler frees up — it must **admit or reject at the
door**.  :class:`AdmissionQueue` is a bounded priority queue that sheds
load instead of blocking: a submission that would exceed the queue
capacity or the per-client quota raises a typed :class:`AdmissionError`
immediately, carrying a ``retry_after`` hint from
:data:`DEFAULT_HINT_POLICY`, a deterministic
:class:`~repro.execution.retry.RetryPolicy` like the runner's — so a
well-behaved client backs off on a seeded exponential schedule.

Quotas count a client's *active* jobs (queued or running); the
orchestrator releases the slot when a job reaches a terminal state, so
a client's budget recycles as its work drains.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter

from repro.core.errors import ServiceError
from repro.execution.retry import RetryPolicy
from repro.service.jobs import Job

#: Why an admission was refused.
ADMISSION_REASONS = ("queue_full", "quota_exceeded", "closed")

#: The backoff schedule behind every ``retry_after`` hint: 50 ms doubling
#: per consecutive rejection, capped at 5 s, with seeded jitter keyed on
#: the client so stampeding clients decorrelate deterministically.
DEFAULT_HINT_POLICY = RetryPolicy(
    max_attempts=1, backoff_seconds=0.05, max_backoff_seconds=5.0
)


class AdmissionError(ServiceError):
    """A submission was load-shed instead of enqueued.

    ``reason`` is one of :data:`ADMISSION_REASONS`; ``retry_after`` is
    the client-side resubmission hint in seconds (0 when retrying is
    pointless, e.g. the service is shutting down).
    """

    def __init__(
        self, message: str, *, reason: str, retry_after: float = 0.0
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class AdmissionQueue:
    """Bounded, priority-ordered, load-shedding job queue.

    Higher ``Job.priority`` drains first; ties drain in submission
    order.  ``capacity`` bounds queued (not yet admitted) jobs;
    ``per_client_quota`` bounds one client's active jobs.  Thread-safe.
    """

    def __init__(
        self,
        capacity: int = 64,
        per_client_quota: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ServiceError(f"capacity must be positive, got {capacity}")
        if per_client_quota is not None and per_client_quota <= 0:
            raise ServiceError(
                f"per_client_quota must be positive, got {per_client_quota}"
            )
        self.capacity = capacity
        self.per_client_quota = per_client_quota
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        self._active: Counter[str] = Counter()
        self._rejections: Counter[str] = Counter()
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    # -- submission --------------------------------------------------------

    def submit(self, job: Job) -> int:
        """Enqueue or raise :class:`AdmissionError`; returns the depth
        observed right after admission (the job's load stamp)."""
        with self._lock:
            if self._closed:
                raise AdmissionError(
                    "the service is shutting down; submissions are closed",
                    reason="closed",
                )
            if self._live_depth() >= self.capacity:
                raise AdmissionError(
                    f"admission queue is full ({self.capacity} queued); "
                    f"retry after {self._hint(job.client):.3f}s",
                    reason="queue_full",
                    retry_after=self._hint(job.client, bump=True),
                )
            if (
                self.per_client_quota is not None
                and self._active[job.client] >= self.per_client_quota
            ):
                raise AdmissionError(
                    f"client {job.client!r} already has "
                    f"{self._active[job.client]} active job(s) "
                    f"(quota {self.per_client_quota}); "
                    f"retry after {self._hint(job.client):.3f}s",
                    reason="quota_exceeded",
                    retry_after=self._hint(job.client, bump=True),
                )
            self._rejections.pop(job.client, None)
            self._active[job.client] += 1
            self._seq += 1
            heapq.heappush(self._heap, (-job.priority, self._seq, job))
            depth = self._live_depth()
            job.queue_depth_at_submit = depth
            self._not_empty.notify()
            return depth

    def _hint(self, client: str, bump: bool = False) -> float:
        """Seeded backoff hint growing with consecutive rejections."""
        attempt = self._rejections[client] + 1
        if bump:
            self._rejections[client] = attempt
        return DEFAULT_HINT_POLICY.delay(attempt, key=client)

    # -- draining ----------------------------------------------------------

    def take(self, timeout: float | None = None) -> Job | None:
        """Pop the highest-priority queued job, waiting up to ``timeout``.

        Returns None on timeout (or immediate emptiness with
        ``timeout=0``), and at once when the queue is closed and holds
        no live job: nothing can arrive any more, so with no timeout
        None means *closed and drained*.  Jobs cancelled while queued are
        skipped — their tombstones are discarded here.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._not_empty:
            while True:
                job = self._pop_live()
                if job is not None:
                    return job
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)

    def _pop_live(self) -> Job | None:
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state == "queued":
                return job
        return None

    # -- bookkeeping -------------------------------------------------------

    def cancel(self, job_id: str) -> Job | None:
        """Tombstone a queued job; returns it, or None when not queued.

        The entry stays in the heap (removal from the middle of a heap
        is O(n)); :meth:`take` discards tombstones as it encounters
        them.  The caller owns the state transition and quota release.
        """
        with self._lock:
            for _, _, job in self._heap:
                if job.job_id == job_id and job.state == "queued":
                    return job
        return None

    def release(self, client: str) -> None:
        """Return one of ``client``'s active slots (job went terminal)."""
        with self._lock:
            if self._active[client] > 0:
                self._active[client] -= 1
                if not self._active[client]:
                    del self._active[client]

    def depth(self) -> int:
        """Queued (live, uncancelled) jobs right now."""
        with self._lock:
            return self._live_depth()

    def _live_depth(self) -> int:
        return sum(
            1 for _, _, job in self._heap if job.state == "queued"
        )

    def active(self, client: str) -> int:
        """``client``'s active (queued + running) job count."""
        with self._lock:
            return self._active[client]

    def close(self) -> None:
        """Reject all further submissions; queued jobs keep draining."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
