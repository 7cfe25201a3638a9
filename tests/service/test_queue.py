"""Tests for bounded admission, quotas, and load shedding."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import ServiceError
from repro.core.spec import BenchmarkSpec
from repro.service.jobs import Job
from repro.service.queue import (
    DEFAULT_HINT_POLICY,
    AdmissionError,
    AdmissionQueue,
)


def make_job(job_id: str, *, client: str = "anonymous",
             priority: int = 0) -> Job:
    return Job(spec=BenchmarkSpec("micro-wordcount"), job_id=job_id,
               client=client, priority=priority)


class TestAdmission:
    def test_capacity_rejection(self):
        queue = AdmissionQueue(capacity=2)
        queue.submit(make_job("j1"))
        queue.submit(make_job("j2"))
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(make_job("j3"))
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.retry_after > 0

    def test_retry_hint_grows_with_consecutive_rejections(self):
        queue = AdmissionQueue(capacity=1)
        queue.submit(make_job("j1", client="alice"))
        hints = []
        for attempt in range(3):
            with pytest.raises(AdmissionError) as excinfo:
                queue.submit(make_job(f"r{attempt}", client="alice"))
            hints.append(excinfo.value.retry_after)
        assert hints == sorted(hints)
        assert hints[0] < hints[-1]

    def test_hints_follow_the_default_policy_bit_for_bit(self):
        """Every queue hints from ``DEFAULT_HINT_POLICY``; its delays are
        the ones the queue gave before the policy's factor and jitter
        became constants."""
        assert [DEFAULT_HINT_POLICY.delay(n, "cli") for n in (1, 2, 8)] == [
            0.053527643954058436, 0.10403261783833967, 4.587027367443875,
        ]
        queue = AdmissionQueue(capacity=1)
        queue.submit(make_job("j1", client="cli"))
        hints = []
        for attempt in range(2):
            with pytest.raises(AdmissionError) as excinfo:
                queue.submit(make_job(f"r{attempt}", client="cli"))
            hints.append(excinfo.value.retry_after)
        assert hints == [0.053527643954058436, 0.10403261783833967]

    def test_rejection_count_resets_on_success(self):
        queue = AdmissionQueue(capacity=1)
        queue.submit(make_job("j1", client="alice"))
        with pytest.raises(AdmissionError) as first:
            queue.submit(make_job("r1", client="alice"))
        with pytest.raises(AdmissionError) as second:
            queue.submit(make_job("r2", client="alice"))
        assert second.value.retry_after > first.value.retry_after
        queue.take(timeout=0)  # drain, freeing capacity
        queue.submit(make_job("j2", client="alice"))  # resets the count
        queue.take(timeout=0)
        queue.submit(make_job("j3", client="alice"))
        with pytest.raises(AdmissionError) as fresh:
            queue.submit(make_job("r3", client="alice"))
        # The hint schedule is deterministic per client, so a fresh
        # first rejection reproduces the original first hint exactly.
        assert fresh.value.retry_after == first.value.retry_after

    def test_quota_rejection_counts_active_jobs(self):
        queue = AdmissionQueue(per_client_quota=1)
        queue.submit(make_job("j1", client="alice"))
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(make_job("j2", client="alice"))
        assert excinfo.value.reason == "quota_exceeded"
        # A different client is unaffected.
        queue.submit(make_job("j3", client="bob"))
        # Releasing the slot re-opens admission (quota counts active
        # jobs, not historical ones).
        queue.release("alice")
        queue.submit(make_job("j4", client="alice"))
        assert queue.active("alice") == 1

    def test_closed_queue_sheds_everything(self):
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(make_job("j1"))
        assert excinfo.value.reason == "closed"
        assert excinfo.value.retry_after == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ServiceError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ServiceError):
            AdmissionQueue(per_client_quota=0)

    def test_submit_stamps_queue_depth(self):
        queue = AdmissionQueue()
        first = make_job("j1")
        second = make_job("j2")
        queue.submit(first)
        queue.submit(second)
        assert first.queue_depth_at_submit == 1
        assert second.queue_depth_at_submit == 2


class TestDraining:
    def test_priority_order_then_fifo(self):
        queue = AdmissionQueue()
        queue.submit(make_job("low", priority=0))
        queue.submit(make_job("high", priority=5))
        queue.submit(make_job("also-low", priority=0))
        order = [queue.take(timeout=0).job_id for _ in range(3)]
        assert order == ["high", "low", "also-low"]

    def test_take_times_out_on_empty(self):
        queue = AdmissionQueue()
        assert queue.take(timeout=0) is None
        assert queue.take(timeout=0.01) is None

    def test_cancelled_jobs_are_skipped(self):
        queue = AdmissionQueue()
        victim = make_job("victim")
        survivor = make_job("survivor")
        queue.submit(victim)
        queue.submit(survivor)
        found = queue.cancel("victim")
        assert found is victim
        found.transition("cancelled")  # caller owns the transition
        assert queue.depth() == 1
        assert queue.take(timeout=0).job_id == "survivor"
        assert queue.take(timeout=0) is None

    def test_cancel_unknown_job_returns_none(self):
        queue = AdmissionQueue()
        assert queue.cancel("nope") is None

    def test_close_wakes_a_blocked_take(self):
        """Regression: ``take`` went back to waiting out its timeout
        after ``close()`` had notified it."""
        queue = AdmissionQueue()
        taken: list[object] = []
        thread = threading.Thread(
            target=lambda: taken.append(queue.take(timeout=5))
        )
        thread.start()
        time.sleep(0.05)  # let it block on the empty queue
        queue.close()
        thread.join(timeout=0.5)
        assert not thread.is_alive()
        assert taken == [None]

    def test_a_closed_queue_still_drains(self):
        queue = AdmissionQueue()
        queue.submit(make_job("queued-before-close"))
        queue.close()
        assert queue.take(timeout=5).job_id == "queued-before-close"
        started = time.monotonic()
        assert queue.take(timeout=5) is None  # closed and drained: at once
        assert time.monotonic() - started < 0.5
