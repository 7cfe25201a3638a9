"""End-to-end tests for the orchestrator and the service client.

The service's contract: same results as the direct runner path (it owns
the lifecycle, not the semantics), plus admission control, cancellation,
and an auditable job log.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.core.errors import ServiceError, SpecError
from repro.core.prescription import builtin_repository
from repro.core.results import RunResult, TaskFailure
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Tracer
from repro.service import (
    AdmissionError,
    AdmissionQueue,
    JobLog,
    Orchestrator,
    ServiceClient,
)


def make_spec(**overrides) -> BenchmarkSpec:
    defaults = dict(prescription="micro-wordcount",
                    engines=["mapreduce"], volume=80)
    defaults.update(overrides)
    return BenchmarkSpec(**defaults)


class TestParityWithDirectRunner:
    def test_submit_wait_result_matches_run_many(self, tmp_path):
        """A service job yields the same outcome and record shape as the
        equivalent direct ``TestRunner.run_many`` call."""
        spec = make_spec(repeats=2, record=True,
                         store_dir=str(tmp_path / "service"))

        with ServiceClient(store_dir=str(tmp_path / "service"),
                           log_jobs=False) as client:
            service_outcomes = client.submit(spec).result(timeout=60)

        repository = builtin_repository()
        runner = TestRunner(
            test_generator=TestGenerator(repository),
            options=RunnerOptions(repeats=2),
        )
        try:
            from repro.analysis.store import RunStore

            runner.store = RunStore(tmp_path / "direct")
            prescription = repository.get(spec.prescription)
            direct_outcomes = runner.run_many(
                [RunTask(prescription, "mapreduce", spec.volume, {})]
            )
        finally:
            runner.close()

        assert len(service_outcomes) == len(direct_outcomes) == 1
        service_result, direct_result = (
            service_outcomes[0], direct_outcomes[0],
        )
        assert isinstance(service_result, RunResult)
        assert service_result.test_name == direct_result.test_name
        assert service_result.engine == direct_result.engine
        assert set(service_result.metrics) == set(direct_result.metrics)
        for name in service_result.metrics:
            assert len(service_result.metrics[name].samples) == 2

        # Recorded entries land in the *same comparable series*: the
        # fingerprint is a pure function of the request, not of the
        # path (service vs. direct) that executed it.
        from repro.analysis.store import RunStore

        service_record = RunStore(tmp_path / "service").latest()
        direct_record = RunStore(tmp_path / "direct").latest()
        assert service_record.fingerprint == direct_record.fingerprint
        assert service_record.series == direct_record.series
        assert (
            set(service_record.result["metrics"])
            == set(direct_record.result["metrics"])
        )
        assert (
            set(service_record.as_dict()) == set(direct_record.as_dict())
        )

    def test_string_spec_submission(self):
        with ServiceClient(log_jobs=False) as client:
            outcomes = client.submit("micro-wordcount").result(timeout=60)
        assert all(isinstance(o, RunResult) for o in outcomes)


class TestConcurrency:
    def test_eight_concurrent_jobs_all_done(self, tmp_path):
        tracer = Tracer()
        with ServiceClient(schedulers=4, store_dir=str(tmp_path),
                           tracer=tracer) as client:
            handles = [
                client.submit(make_spec(volume=60), client=f"c{i % 2}")
                for i in range(8)
            ]
            jobs = [handle.wait(timeout=120) for handle in handles]
        assert [job.state for job in jobs] == ["done"] * 8
        assert len({job.job_id for job in jobs}) == 8

        # Every job ran under a "job" span carrying the queue-depth
        # counter observed at submission.
        job_spans = [
            span for span in tracer.roots() if span.name == "job"
        ]
        assert len(job_spans) == 8
        assert all("queue.depth" in span.counters for span in job_spans)
        assert max(
            span.counters["queue.depth"] for span in job_spans
        ) >= 1
        assert all(
            "queue_wait_seconds" in span.attrs for span in job_spans
        )

    def test_unique_record_ids_under_concurrency(self, tmp_path):
        from repro.analysis.store import RunStore

        with ServiceClient(schedulers=4,
                           store_dir=str(tmp_path)) as client:
            handles = [
                client.submit(make_spec(volume=60, record=True,
                                        store_dir=str(tmp_path)))
                for _ in range(8)
            ]
            jobs = [handle.wait(timeout=120) for handle in handles]
        record_ids = [rid for job in jobs for rid in job.record_ids]
        assert len(record_ids) == 8
        assert len(set(record_ids)) == 8
        assert len(RunStore(tmp_path).records()) == 8


class TestLifecycle:
    def test_cancel_mid_queue(self, tmp_path):
        # An unstarted orchestrator never drains, so the job stays
        # queued and cancellation must win.
        orchestrator = Orchestrator(store_dir=str(tmp_path))
        job = orchestrator.submit(make_spec())
        assert orchestrator.status(job.job_id) == "queued"
        assert orchestrator.cancel(job.job_id) is True
        assert job.state == "cancelled"
        # Cancelling again (or a terminal job) is a no-op.
        assert orchestrator.cancel(job.job_id) is False
        with pytest.raises(ServiceError, match="cancelled"):
            ServiceClient(orchestrator=orchestrator).handle(
                job.job_id
            ).result(timeout=1)
        orchestrator.shutdown()

    def test_quota_rejection_surfaces_retry_hint(self, tmp_path):
        orchestrator = Orchestrator(
            queue=AdmissionQueue(per_client_quota=1),
            store_dir=str(tmp_path),
        )
        orchestrator.submit(make_spec(), client="alice")
        with pytest.raises(AdmissionError) as excinfo:
            orchestrator.submit(make_spec(), client="alice")
        assert excinfo.value.reason == "quota_exceeded"
        assert excinfo.value.retry_after > 0
        orchestrator.shutdown()

    def test_invalid_spec_rejected_at_the_door(self, tmp_path):
        orchestrator = Orchestrator(store_dir=str(tmp_path))
        with pytest.raises(SpecError):
            orchestrator.submit(BenchmarkSpec("no-such-prescription"))
        with pytest.raises(SpecError):
            orchestrator.submit(make_spec(repeats=0))
        orchestrator.shutdown()

    def test_failure_capture_continue(self, tmp_path):
        # The injected latency is a real sleep, so the task reliably
        # outlives its budget (a cpu-bound task this short can finish
        # within one GIL switch interval and dodge the timeout).
        spec = make_spec(task_timeout=0.01, inject_latency=0.3,
                         on_error="continue")
        with ServiceClient(store_dir=str(tmp_path)) as client:
            handle = client.submit(spec)
            job = handle.wait(timeout=60)
            outcomes = handle.result(timeout=60)
        # The batch completed: the job is done, the captured failure
        # rides along in the outcomes rather than failing the job.
        assert job.state == "done"
        assert job.failure_count == 1
        assert isinstance(outcomes[0], TaskFailure)

    def test_runner_exception_fails_the_job(self, tmp_path):
        spec = make_spec(task_timeout=0.01, inject_latency=0.3,
                         on_error="abort")
        with ServiceClient(store_dir=str(tmp_path)) as client:
            handle = client.submit(spec)
            job = handle.wait(timeout=60)
            with pytest.raises(ServiceError, match="failed"):
                handle.result(timeout=60)
        assert job.state == "failed"
        assert job.error_type == "TaskTimeoutError"
        assert "budget" in (job.error_message or "")

    def test_wait_timeout(self, tmp_path):
        orchestrator = Orchestrator(store_dir=str(tmp_path))
        job = orchestrator.submit(make_spec())
        with pytest.raises(ServiceError, match="timed out"):
            orchestrator.wait(job.job_id, timeout=0.01)
        orchestrator.shutdown(drain=False)

    def test_unknown_job_raises(self, tmp_path):
        orchestrator = Orchestrator(store_dir=str(tmp_path))
        with pytest.raises(ServiceError, match="unknown job"):
            orchestrator.status("j9999")
        orchestrator.shutdown()

    def test_shutdown_rejects_new_submissions(self, tmp_path):
        orchestrator = Orchestrator(store_dir=str(tmp_path)).start()
        orchestrator.shutdown()
        with pytest.raises(AdmissionError) as excinfo:
            orchestrator.submit(make_spec())
        assert excinfo.value.reason == "closed"

    def test_shutdown_drains_then_joins_every_scheduler(self, tmp_path):
        orchestrator = Orchestrator(
            schedulers=2, store_dir=str(tmp_path)
        ).start()
        threads = list(orchestrator._threads)
        job = orchestrator.submit(make_spec(volume=10))
        stopper = threading.Thread(target=orchestrator.shutdown)
        stopper.start()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
        assert len(threads) == 2
        assert not any(thread.is_alive() for thread in threads)
        assert job.state == "done"

    def test_an_idle_service_stops_when_it_is_told_to(self, tmp_path):
        """Regression: every shutdown of an idle service waited out the
        schedulers' 50 ms poll (ten of them: half a second)."""
        started = time.monotonic()
        for _ in range(10):
            Orchestrator(
                schedulers=2, store_dir=str(tmp_path), log_jobs=False
            ).start().shutdown()
        assert time.monotonic() - started < 0.25


class TestEventsAndLog:
    def test_watch_yields_full_lifecycle(self, tmp_path):
        with ServiceClient(store_dir=str(tmp_path)) as client:
            handle = client.submit(make_spec(volume=60))
            states = [event.state for event in handle.events()]
        assert states == ["queued", "admitted", "running", "done"]

    def test_subscribe_sees_transitions(self, tmp_path):
        seen: list[str] = []
        lock = threading.Lock()

        def observer(event):
            with lock:
                seen.append(f"{event.job_id}:{event.state}")

        with ServiceClient(store_dir=str(tmp_path)) as client:
            client.subscribe(observer)
            handle = client.submit(make_spec(volume=60))
            handle.wait(timeout=60)
        assert f"{handle.job_id}:queued" in seen
        assert f"{handle.job_id}:done" in seen

    def test_job_log_replay_matches_live_state(self, tmp_path):
        with ServiceClient(store_dir=str(tmp_path)) as client:
            handle = client.submit(
                make_spec(volume=60, record=True,
                          store_dir=str(tmp_path))
            )
            job = handle.wait(timeout=60)
        replayed = JobLog(tmp_path).get(job.job_id)
        assert replayed.state == "done"
        assert replayed.record_ids == job.record_ids
        assert replayed.spec == job.spec

    def test_back_to_back_jobs_log_in_lifecycle_order(self, tmp_path):
        """Regression: ``queued`` was appended after the job was already
        takeable and ``done`` after the waiter was woken, so a client
        cycling submit/result() could find a job's events out of order
        (``jobs list`` then failed to replay the log)."""
        log = JobLog(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(store_dir=str(tmp_path), schedulers=2) as client:
                for _ in range(200):
                    handle = client.submit(make_spec(volume=10))
                    handle.result(timeout=60)
                    # What result() observed is already in the log.
                    last = json.loads(log.path.read_text().splitlines()[-1])
                    assert (last["job_id"], last["event"]) == (
                        handle.job_id, "done")
        finally:
            sys.setswitchinterval(interval)

        jobs = log.replay()
        assert len(jobs) == 200
        assert all(job.state == "done" for job in jobs.values())
        per_job: dict[str, list[str]] = {}
        for event in log.events():
            per_job.setdefault(event["job_id"], []).append(event["event"])
        assert set(map(tuple, per_job.values())) == {
            ("queued", "admitted", "running", "done")
        }

    def test_sessions_on_one_store_continue_the_job_sequence(
        self, tmp_path, capsys
    ):
        """Regression: every orchestrator numbered from ``j0001``, so a
        second session on the same store logged a second ``j0001`` and
        replay kept only the newer job."""
        from repro.cli import main

        ids = []
        for _ in range(2):
            with ServiceClient(store_dir=str(tmp_path)) as client:
                handle = client.submit(make_spec(volume=10))
                handle.result(timeout=60)
                ids.append(handle.job_id)
        assert ids == ["j0001", "j0002"]
        assert list(JobLog(tmp_path).replay()) == ids
        assert main(["jobs", "list", "--store-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "j0001" in listing and "j0002" in listing

    def test_a_torn_log_line_does_not_stop_the_service(self, tmp_path):
        from repro.cli import main

        with ServiceClient(store_dir=str(tmp_path)) as client:
            client.submit(make_spec(volume=10)).result(timeout=60)
        with JobLog(tmp_path).path.open("a") as handle:
            handle.write('{"job_id": "j00')
        with ServiceClient(store_dir=str(tmp_path)) as client:
            handle = client.submit(make_spec(volume=10))
            assert handle.job_id == "j0002"
            handle.result(timeout=60)
        # The fragment cost only itself: the second session's events
        # were not glued onto it, and the log reads cleanly again.
        jobs = JobLog(tmp_path).replay()
        assert [(job_id, job.state) for job_id, job in jobs.items()] == [
            ("j0001", "done"), ("j0002", "done"),
        ]
        assert main(["jobs", "list", "--store-dir", str(tmp_path)]) == 0


class TestServiceClient:
    def test_context_manager_owns_private_orchestrator(self, tmp_path):
        client = ServiceClient(store_dir=str(tmp_path))
        with client:
            client.submit(make_spec(volume=60)).wait(timeout=60)
        # Closed on exit: further submissions are shed.
        with pytest.raises(AdmissionError):
            client.orchestrator.submit(make_spec())

    def test_shared_orchestrator_survives_client_close(self, tmp_path):
        orchestrator = Orchestrator(store_dir=str(tmp_path)).start()
        with ServiceClient(orchestrator=orchestrator) as client:
            client.submit(make_spec(volume=60)).wait(timeout=60)
        # The shared orchestrator is still open for business.
        job = orchestrator.submit(make_spec(volume=60))
        orchestrator.wait(job.job_id, timeout=60)
        assert job.state == "done"
        orchestrator.shutdown()

    def test_orchestrator_and_options_are_exclusive(self, tmp_path):
        orchestrator = Orchestrator(store_dir=str(tmp_path))
        with pytest.raises(ServiceError, match="not both"):
            ServiceClient(orchestrator=orchestrator, schedulers=4)
        orchestrator.shutdown()
