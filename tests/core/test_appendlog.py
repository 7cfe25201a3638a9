"""The append-only log under ``runs.jsonl`` and ``jobs.jsonl``.

The torn-tail property (the pattern PR 13 used for LDA): a crash in the
middle of an append may leave any prefix of the final line behind, so
every byte offset of that line is tried.  Whatever is left, readers
return exactly the lines whose append had returned, the next append
gets the next id, and no earlier line changes by a byte.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.store import RunStore
from repro.core.appendlog import AppendLog, _last_line
from repro.core.errors import AnalysisError, ServiceError
from repro.core.results import MetricStats, RunResult
from repro.core.spec import BenchmarkSpec
from repro.service.jobs import Job, JobLog

ENVIRONMENT = {"python": "3", "platform": "test", "cpus": 1, "git_sha": None}


def make_result(test: str = "t1") -> RunResult:
    return RunResult(
        test_name=test,
        workload="wordcount",
        engine="mapreduce",
        repeats=2,
        metrics={"duration": MetricStats("duration", [1.0, 1.5])},
    )


def make_job(job_id: str) -> Job:
    return Job(spec=BenchmarkSpec("micro-wordcount"), job_id=job_id)


def torn_copies(path: Path, scratch: Path):
    """``(kept, prefix)`` per byte offset of the final line of ``path``:
    ``scratch`` holds the file cut there, ``kept`` complete lines and the
    ``prefix`` bytes they occupy survive the cut."""
    full = path.read_bytes()
    lines = full.splitlines(keepends=True)
    before = len(full) - len(lines[-1])
    for cut in range(before, len(full) + 1):
        scratch.write_bytes(full[:cut])
        whole = cut == len(full)
        yield (len(lines) if whole else len(lines) - 1), (
            full if whole else full[:before]
        )


def assert_only_complete_lines(path: Path, prefix: bytes, count: int) -> None:
    data = path.read_bytes()
    assert data.startswith(prefix)  # every earlier line byte-identical
    assert data.endswith(b"\n")
    lines = data.split(b"\n")[:-1]
    assert len(lines) == count
    for line in lines:
        json.loads(line)


class TestTornTail:
    def test_run_store_at_every_byte_offset_of_the_final_record(
        self, tmp_path
    ):
        source = RunStore(tmp_path / "source")
        for index in range(3):
            source.record_outcome(
                make_result(f"t{index}"), {"k": index}, ENVIRONMENT
            )
        store = RunStore(tmp_path / "torn")
        store.root.mkdir()
        for kept, prefix in torn_copies(source.path, store.path):
            ids = [record.record_id for record in store.records()]
            assert ids == [f"r{n:04d}" for n in range(1, kept + 1)]
            record = store.record_outcome(
                make_result("next"), {"k": "next"}, ENVIRONMENT
            )
            assert record.record_id == f"r{kept + 1:04d}"
            assert_only_complete_lines(store.path, prefix, kept + 1)
            assert store.records()[-1].test_name == "next"

    def test_job_log_at_every_byte_offset_of_a_queued_line(self, tmp_path):
        source = JobLog(tmp_path / "source")
        first = make_job("j0001")
        source.append(first, "queued")
        for state in ("admitted", "running", "done"):
            first.transition(state)
            source.append(first, state)
        source.append(make_job("j0002"), "queued")  # the victim
        log = JobLog(tmp_path / "torn")
        log.root.mkdir()
        for kept, prefix in torn_copies(source.path, log.path):
            assert len(log.events()) == kept
            assert log.last_sequence() == (2 if kept == 5 else 1)
            log.append(make_job("j0003"), "queued")
            assert_only_complete_lines(log.path, prefix, kept + 1)
            jobs = log.replay()
            assert list(jobs) == (
                ["j0001", "j0002", "j0003"] if kept == 5
                else ["j0001", "j0003"]
            )
            assert jobs["j0001"].state == "done"

    def test_a_complete_unparsable_last_line_is_not_numbered_after(
        self, tmp_path
    ):
        store = RunStore(tmp_path)
        store.record_outcome(make_result(), {"k": 1}, ENVIRONMENT)
        with store.path.open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(AnalysisError, match=str(store.path)):
            store.record_outcome(make_result(), {"k": 1}, ENVIRONMENT)
        assert store.path.read_bytes().endswith(b"not json\n")

    def test_blank_lines_are_neither_read_nor_numbered_after(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_outcome(make_result(), {"k": 1}, ENVIRONMENT)
        with store.path.open("a") as handle:
            handle.write("\n  \n")
        record = store.record_outcome(make_result(), {"k": 1}, ENVIRONMENT)
        assert record.record_id == "r0002"
        assert [r.record_id for r in store.records()] == ["r0001", "r0002"]


class TestErrors:
    @pytest.mark.parametrize(
        "log, error",
        [
            (lambda root: RunStore(root)._log, AnalysisError),
            (lambda root: JobLog(root)._log, ServiceError),
        ],
        ids=["run-store", "job-log"],
    )
    def test_an_os_error_is_the_owners_error_naming_the_path(
        self, tmp_path, log, error
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("in the way of the directory")
        with pytest.raises(error, match="a-file") as caught:
            log(blocker).append(lambda last: "{}")
        assert isinstance(caught.value.__cause__, OSError)

    def test_reading_a_directory_is_an_error_not_an_empty_log(self, tmp_path):
        log = AppendLog(tmp_path, AnalysisError, "run store")
        with pytest.raises(AnalysisError, match="cannot read run store"):
            list(log.lines())

    def test_a_raising_builder_writes_and_truncates_nothing(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl", AnalysisError, "log")
        log.append(lambda last: "1")
        with log.path.open("ab") as handle:
            handle.write(b"torn")

        def refuse(last):
            raise AnalysisError("no")

        with pytest.raises(AnalysisError, match="no"):
            log.append(refuse)
        assert log.path.read_bytes() == b"1\ntorn"


class _ShortWrites:
    """``os.write`` that takes at most ``limit`` bytes per call."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.calls = 0
        self.write = os.write

    def __call__(self, fd: int, data: bytes) -> int:
        self.calls += 1
        return self.write(fd, data[: self.limit])


class TestWrites:
    def test_one_write_per_line(self, tmp_path, monkeypatch):
        log = AppendLog(tmp_path / "log.jsonl", AnalysisError, "log")
        writes = _ShortWrites(limit=1 << 30)
        monkeypatch.setattr("repro.core.appendlog.os.write", writes)
        log.append(lambda last: "x" * 300_000)
        assert writes.calls == 1

    def test_a_short_write_is_completed_under_the_same_lock(
        self, tmp_path, monkeypatch
    ):
        log = AppendLog(tmp_path / "log.jsonl", AnalysisError, "log")
        writes = _ShortWrites(limit=7)
        monkeypatch.setattr("repro.core.appendlog.os.write", writes)
        log.append(lambda last: "a" * 20)
        log.append(lambda last: "b" * 20)
        assert writes.calls == 6
        assert [line for _, line in log.lines()] == [b"a" * 20, b"b" * 20]


#: Mostly short lines, some longer than any pipe or stdio buffer.
_LENGTHS = st.one_of(
    st.integers(1, 200),
    st.integers(4000, 4200),  # around the first tail window
    st.integers(60_000, 300_000),
)


class TestTailReader:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(_LENGTHS, min_size=1, max_size=5),
        torn=st.one_of(st.just(0), _LENGTHS),
        window=st.integers(1, 10_000),
    )
    def test_the_last_line_is_found_whatever_the_first_window(
        self, lengths, torn, window
    ):
        lines = [
            (b"%d:" % index).ljust(length, b"x")[:length]
            for index, length in enumerate(lengths)
        ]
        with tempfile.TemporaryDirectory() as root:
            log = AppendLog(Path(root) / "log.jsonl", AnalysisError, "log")
            seen = []
            for line in lines:
                log.append(
                    lambda last: seen.append(last) or line.decode("ascii")
                )
            assert seen == [None, *lines[:-1]]
            complete = log.path.stat().st_size
            with log.path.open("ab") as handle:
                handle.write(b"y" * torn)
            fd = os.open(log.path, os.O_RDONLY)
            try:
                assert _last_line(fd, complete + torn, window) == (
                    lines[-1], complete
                )
            finally:
                os.close(fd)
            assert list(log.lines()) == list(enumerate(lines, start=1))
            log.append(lambda last: seen.append(last) or "end")
            assert seen[-1] == lines[-1]
            assert log.path.read_bytes() == b"\n".join([*lines, b"end", b""])
