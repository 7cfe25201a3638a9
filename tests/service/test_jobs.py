"""Tests for the job state machine and the append-only job log."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ServiceError
from repro.core.spec import SPEC_VERSION, BenchmarkSpec
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, Job, JobLog


def make_job(job_id: str = "j0001", **spec_kwargs) -> Job:
    return Job(spec=BenchmarkSpec("micro-wordcount", **spec_kwargs),
               job_id=job_id)


class TestJobStateMachine:
    def test_happy_path(self):
        job = make_job()
        assert job.state == "queued"
        assert not job.terminal
        job.transition("admitted")
        job.transition("running")
        job.transition("done")
        assert job.terminal
        assert [state for state, _ in job.history] == [
            "queued", "admitted", "running", "done",
        ]

    def test_illegal_jump_raises(self):
        job = make_job()
        with pytest.raises(ServiceError, match="cannot go"):
            job.transition("running")  # must be admitted first

    def test_terminal_states_are_final(self):
        job = make_job()
        job.transition("cancelled")
        for state in JOB_STATES:
            with pytest.raises(ServiceError):
                job.transition(state)

    def test_cancel_only_from_non_terminal(self):
        job = make_job()
        job.transition("admitted")
        job.transition("running")
        job.transition("cancelled")
        assert job.state in TERMINAL_STATES

    def test_unknown_state_rejected(self):
        job = make_job()
        with pytest.raises(ServiceError, match="cannot go"):
            job.transition("paused")

    def test_queue_wait_seconds(self):
        job = make_job()
        assert job.queue_wait_seconds() is None
        job.transition("admitted", at=job.submitted_at + 0.25)
        assert job.queue_wait_seconds() == pytest.approx(0.25)

    def test_timestamps_keep_first_entry(self):
        job = make_job()
        stamps = job.timestamps
        assert stamps["queued"] == job.submitted_at


class TestJobSerialization:
    def test_round_trip(self):
        job = make_job(volume=120, engines=["mapreduce"], repeats=2)
        job.transition("admitted")
        payload = job.as_dict()
        assert payload["spec"]["spec_version"] == SPEC_VERSION
        clone = Job.from_dict(payload)
        assert clone.job_id == job.job_id
        assert clone.state == "admitted"
        assert clone.spec == job.spec
        assert clone.history == job.history

    def test_error_fields_survive(self):
        job = make_job()
        job.transition("admitted")
        job.transition("running")
        job.error_type = "ExecutionError"
        job.error_message = "boom"
        job.transition("failed")
        clone = Job.from_dict(job.as_dict())
        assert clone.error_type == "ExecutionError"
        assert clone.error_message == "boom"


class TestJobLog:
    def test_replay_reconstructs_lifecycle(self, tmp_path):
        log = JobLog(tmp_path)
        job = make_job()
        log.append(job, "queued")
        job.transition("admitted")
        log.append(job, "admitted")
        job.transition("running")
        log.append(job, "running")
        job.transition("done")
        log.append(job, "done", detail={
            "record_ids": ["r0001"], "failure_count": 1,
        })

        replayed = log.replay()["j0001"]
        assert replayed.state == "done"
        assert replayed.record_ids == ["r0001"]
        assert replayed.failure_count == 1
        assert [state for state, _ in replayed.history] == [
            "queued", "admitted", "running", "done",
        ]

    def test_replay_applies_error_detail(self, tmp_path):
        log = JobLog(tmp_path)
        job = make_job()
        log.append(job, "queued")
        job.transition("admitted")
        log.append(job, "admitted")
        job.transition("running")
        log.append(job, "running")
        job.transition("failed")
        log.append(job, "failed", detail={
            "error_type": "ExecutionError", "error_message": "boom",
        })
        replayed = log.replay()["j0001"]
        assert replayed.state == "failed"
        assert replayed.error_type == "ExecutionError"
        assert replayed.error_message == "boom"

    def test_get_by_unique_prefix(self, tmp_path):
        log = JobLog(tmp_path)
        log.append(make_job("j0001"), "queued")
        log.append(make_job("j0002"), "queued")
        assert log.get("j0002").job_id == "j0002"
        with pytest.raises(ServiceError, match="ambiguous"):
            log.get("j0")
        with pytest.raises(ServiceError, match="no job"):
            log.get("j9999")

    def test_corrupt_log_fails_loudly(self, tmp_path):
        log = JobLog(tmp_path)
        log.append(make_job(), "queued")
        with log.path.open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(ServiceError, match="corrupt job log"):
            log.events()

    def test_empty_log_replays_empty(self, tmp_path):
        assert JobLog(tmp_path).replay() == {}

    def test_last_sequence_skips_unparsable_lines(self, tmp_path):
        log = JobLog(tmp_path)
        assert log.last_sequence() == 0
        log.append(make_job("j0003"), "queued")
        log.append(make_job("j0011"), "queued")
        with log.path.open("a") as handle:
            handle.write('{"job_id": "j0099", "event": "que\n')  # torn tail
            handle.write('["not", "an", "event"]\n')
        assert log.last_sequence() == 11

    def test_submit_numbers_after_the_tail_and_logs_nothing_it_sheds(
        self, tmp_path
    ):
        log = JobLog(tmp_path)
        with log.path.open("a") as handle:  # lines from before ``seq``
            for job_id in ("j0007", "j0003"):
                line = {"job_id": job_id, "event": "queued",
                        "job": make_job(job_id).as_dict()}
                handle.write(json.dumps(line) + "\n")

        def shed(job):
            raise ServiceError("full")

        jobs = [make_job(""), make_job(""), make_job("")]
        log.submit(jobs[0], admit=lambda job: None)
        with pytest.raises(ServiceError, match="full"):
            log.submit(jobs[1], admit=shed)
        log.submit(jobs[2], admit=lambda job: None)
        assert [job.job_id for job in jobs] == ["j0008", "j0009", "j0009"]
        assert [event.get("seq") for event in log.events()] == [None, None, 8, 9]
        assert list(log.replay()) == ["j0007", "j0003", "j0008", "j0009"]

    def test_cancel_tombstones_a_non_terminal_job(self, tmp_path):
        log = JobLog(tmp_path)
        log.append(make_job("j0001"), "queued")
        cancelled = log.cancel("j0001", reason="operator")
        assert cancelled.state == "cancelled"
        assert log.get("j0001").state == "cancelled"
        assert log.events()[-1]["detail"] == {"reason": "operator"}
        with pytest.raises(ServiceError, match="already cancelled"):
            log.cancel("j0001", reason="again")
