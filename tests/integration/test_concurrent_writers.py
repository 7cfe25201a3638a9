"""Concurrent writers on one store directory (DESIGN.md §3.18, §3.10).

Record ids come from the log's tail under an inter-process file lock, so
any mix of processes, threads and ``RunStore`` objects appending to one
``runs.jsonl`` gets distinct ids in file order and whole lines.  Baseline
promotions take turns under a lock of their own and replace
``baselines.json`` whole, so none is lost and no reader sees a torn map.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading
import time

from repro.analysis.baselines import BaselineManager
from repro.analysis.store import RunStore
from repro.core.results import MetricStats, RunResult
from repro.core.spec import BenchmarkSpec
from repro.service import JobLog, ServiceClient

WRITERS = 4
APPENDS = 50
ENVIRONMENT = {"python": "3", "platform": "test", "cpus": 1, "git_sha": None}
#: The start method the process backend uses (``execution/workers.py``).
FORK = multiprocessing.get_context("fork")


def _record_many(root, writer: int, barrier) -> None:
    store = RunStore(root)
    barrier.wait(timeout=30)
    for index in range(APPENDS):
        result = RunResult(
            test_name=f"w{writer}-{index}",
            workload="wordcount",
            engine="mapreduce",
            repeats=1,
            metrics={"duration": MetricStats("duration", [1.0])},
        )
        record = store.record_outcome(result, {"writer": writer}, ENVIRONMENT)
        assert result.extra["record_id"] == record.record_id


def _assert_ordered_distinct_ids(root) -> None:
    lines = (root / RunStore.FILENAME).read_bytes().split(b"\n")
    assert lines.pop() == b""  # the file ends with a newline
    payloads = [json.loads(line) for line in lines]
    assert [payload["record_id"] for payload in payloads] == [
        f"r{number:04d}" for number in range(1, WRITERS * APPENDS + 1)
    ]
    # Each writer's own appends are in the file in the order it made them.
    for writer in range(WRITERS):
        assert [
            payload["result"]["test"] for payload in payloads
            if payload["fingerprint"]["writer"] == writer
        ] == [f"w{writer}-{index}" for index in range(APPENDS)]


def _run_processes(targets) -> None:
    processes = [FORK.Process(target=target, args=args) for target, args in targets]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert [process.exitcode for process in processes] == [0] * len(processes)


def test_processes_recording_into_one_store_get_distinct_ordered_ids(tmp_path):
    barrier = FORK.Barrier(WRITERS)
    _run_processes(
        (_record_many, (tmp_path, writer, barrier)) for writer in range(WRITERS)
    )
    _assert_ordered_distinct_ids(tmp_path)


def test_threads_over_two_store_objects_get_distinct_ordered_ids(tmp_path):
    barrier = threading.Barrier(WRITERS)
    failures: list[BaseException] = []

    def work(writer: int) -> None:
        try:
            _record_many(tmp_path, writer, barrier)
        except BaseException as error:  # noqa: BLE001 — reported below
            failures.append(error)

    threads = [
        threading.Thread(target=work, args=(writer,)) for writer in range(WRITERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert not any(thread.is_alive() for thread in threads)
    _assert_ordered_distinct_ids(tmp_path)


# -- two service sessions on one store ----------------------------------------


def _session(root, volumes, wait_for=None, submitted=None) -> None:
    """One service session: submit a recorded job per volume, then wait."""
    if wait_for is not None:
        assert wait_for.wait(timeout=60)
    with ServiceClient(store_dir=str(root), schedulers=1) as client:
        handles = [
            client.submit(
                BenchmarkSpec(
                    "micro-wordcount", engines=["mapreduce"], volume=volume,
                    record=True, store_dir=str(root),
                )
            )
            for volume in volumes
        ]
        if submitted is not None:
            submitted.set()
        for handle in handles:
            handle.result(timeout=60)


def _replayed(root):
    """Jobs and records of a store, with record ids replaced by what
    they point at."""
    records = RunStore(root).records()
    by_id = {record.record_id: record for record in records}
    assert sorted(by_id) == [f"r{n:04d}" for n in range(1, len(records) + 1)]
    jobs = {
        job_id: (
            job.state, job.spec.volume,
            [by_id[record_id].fingerprint["volume"] for record_id in job.record_ids],
        )
        for job_id, job in JobLog(root).replay().items()
    }
    return jobs, sorted((r.series, r.test_name, r.status) for r in records)


def test_interleaved_sessions_replay_like_sessions_in_sequence(tmp_path):
    """Two service processes on one store at once.  The second starts
    once the first has logged its submissions (job ids are numbered per
    service, §3.18), then both run, log and record side by side."""
    first, second = [400, 500, 600, 700, 800, 900], [450, 550, 650, 750]
    in_sequence, interleaved = tmp_path / "sequence", tmp_path / "interleaved"

    _run_processes([(_session, (in_sequence, first))])
    _run_processes([(_session, (in_sequence, second))])

    submitted = FORK.Event()
    _run_processes([
        (_session, (interleaved, first, None, submitted)),
        (_session, (interleaved, second, submitted)),
    ])

    jobs, records = _replayed(interleaved)
    assert (jobs, records) == _replayed(in_sequence)
    assert jobs == {
        f"j{number:04d}": ("done", volume, [volume])
        for number, volume in enumerate(first + second, start=1)
    }


# -- baselines promoted at once ----------------------------------------------

PROMOTERS = 8
PROMOTIONS = 10


def _store_with_one_run(root) -> None:
    result = RunResult(
        test_name="baseline", workload="wordcount", engine="mapreduce",
        repeats=1, metrics={"duration": MetricStats("duration", [1.0])},
    )
    RunStore(root).record_outcome(result, {"writer": 0}, ENVIRONMENT)


def _promote_many(root, promoter: int, barrier) -> None:
    manager = BaselineManager(RunStore(root))
    barrier.wait(timeout=30)
    for index in range(PROMOTIONS):
        manager.promote("latest", f"b{promoter}-{index}")


def _read_until_complete(root, barrier) -> None:
    """Read the map without pause until every promotion is in it; a
    torn file raises here and fails the process."""
    manager = BaselineManager(RunStore(root))
    barrier.wait(timeout=30)
    deadline = time.monotonic() + 60
    while len(manager.all()) < PROMOTERS * PROMOTIONS:
        assert time.monotonic() < deadline, "a promotion never arrived"


def test_processes_promoting_at_once_keep_every_baseline(tmp_path):
    _store_with_one_run(tmp_path)
    barrier = FORK.Barrier(PROMOTERS)
    _run_processes(
        (_promote_many, (tmp_path, promoter, barrier))
        for promoter in range(PROMOTERS)
    )
    payload = json.loads((tmp_path / BaselineManager.FILENAME).read_text())
    assert sorted(payload) == sorted(
        f"b{promoter}-{index}"
        for promoter in range(PROMOTERS) for index in range(PROMOTIONS)
    )
    assert {entry["record_id"] for entry in payload.values()} == {"r0001"}


def test_a_reader_racing_the_promoters_never_sees_a_torn_file(tmp_path):
    _store_with_one_run(tmp_path)
    barrier = FORK.Barrier(PROMOTERS + 1)
    _run_processes(
        [(_read_until_complete, (tmp_path, barrier))]
        + [
            (_promote_many, (tmp_path, promoter, barrier))
            for promoter in range(PROMOTERS)
        ]
    )
