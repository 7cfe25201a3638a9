"""The collector contract: a run pauses the cyclic GC and always resumes it.

``api.run``, ``api.sweep``, ``api.ablate``, ``BenchmarkingProcess.execute``,
``TestRunner.run_many`` and each request of a load against a workload
hold the collector off (``_util.collector_paused``); whichever call found
it on turns it back on, whether the run returns or raises, and the three
``api`` calls only after their framework or runner, and with it the data
set, is gone.  Nothing here times anything: each test asserts what
``gc.isenabled()`` reads during and after one public call, or what the
collector's generations hold after it.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import weakref

import pytest

from repro import _util, api
from repro.core.errors import SpecError
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import PrescribedTest, TestGenerator
from repro.datagen.stream import StreamEvent
from repro.execution.runner import RunnerOptions, RunTask, TestRunner

_SPEC = BenchmarkSpec("micro-wordcount", volume=40)
#: A prescription whose records the collector tracks (slotted events).
_WINDOW = "realtime-windowed-aggregation"


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the collector was left off"


@pytest.fixture
def seen(monkeypatch):
    """``gc.isenabled()`` as every data generation and task found it."""
    readings: list[bool] = []
    for owner, name in (
        (TestGenerator, "select_data"),
        (TestRunner, "run_task"),
    ):
        original = getattr(owner, name)

        def probe(*args, _original=original, **kwargs):
            readings.append(gc.isenabled())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, probe)
    return readings


@pytest.fixture
def failing_tasks(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("injected task failure")

    monkeypatch.setattr(TestRunner, "run_task", fail)


class TestRunsPauseAndResume:
    def test_api_run(self, seen):
        report = api.run("micro-wordcount", volume=40)
        assert report.results[0].ok
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_api_run_that_raises(self, failing_tasks):
        with pytest.raises(RuntimeError, match="injected"):
            api.run("micro-wordcount", volume=40)
        assert gc.isenabled()

    def test_a_service_job(self, seen):
        with api.serve(schedulers=1) as client:
            job = client.submit(_SPEC).wait()
        assert job.state == "done"
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_a_service_job_that_fails(self, failing_tasks):
        with api.serve(schedulers=1) as client:
            job = client.submit(_SPEC).wait()
        assert job.state == "failed"
        assert gc.isenabled()

    def test_ablate(self, seen, tmp_path):
        report = api.ablate(
            ["relational"], ["dbms"], repeats=1, volume=60,
            include_one_offs=False, store_dir=str(tmp_path),
        )
        assert report.cells
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_ablate_that_raises(self, failing_tasks, tmp_path):
        with pytest.raises(RuntimeError, match="injected"):
            api.ablate(
                ["relational"], ["dbms"], repeats=1, volume=60,
                include_one_offs=False, store_dir=str(tmp_path),
            )
        assert gc.isenabled()

    @pytest.mark.parametrize("service", [False, True])
    def test_load(self, service):
        report = api.load(
            "micro-wordcount", rate=20, duration=0.2, clock="virtual",
            volume=30, service=service,
        )
        assert report.offered
        assert gc.isenabled()

    def test_load_that_raises(self):
        # The workload target validates its spec, as ``run`` does.
        with pytest.raises(SpecError):
            api.load("does-not-exist", rate=20, duration=0.2, clock="virtual")
        assert gc.isenabled()


class TestThePauseOutlivesTheRun:
    """The three ``api`` calls release what they built before the pause
    ends: the data set dies by reference count, never walked."""

    CALLS = {
        "run": lambda tmp_path: api.run(_WINDOW, volume=300),
        "sweep": lambda tmp_path: api.sweep(
            _WINDOW, "streaming", volumes=[200, 300]
        ),
        "ablate": lambda tmp_path: api.ablate(
            ["relational"], ["dbms"], repeats=1, volume=60,
            include_one_offs=False, store_dir=str(tmp_path),
        ),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_the_data_set_dies_with_the_collector_off(
        self, call, monkeypatch, tmp_path
    ):
        deaths: list[tuple[str, bool]] = []
        original = TestGenerator.select_data

        def watched(self, *args, **kwargs):
            dataset = original(self, *args, **kwargs)
            for name, owner in (("data set", dataset), ("generator", self)):
                weakref.finalize(
                    owner, lambda name=name: deaths.append((name, gc.isenabled()))
                )
            return dataset

        monkeypatch.setattr(TestGenerator, "select_data", watched)
        self.CALLS[call](tmp_path)
        assert gc.isenabled()
        assert {name for name, _ in deaths} == {"data set", "generator"}
        assert not any(enabled for _, enabled in deaths), deaths

    def test_no_record_of_the_data_set_outlives_the_call(self):
        def events_tracked() -> int:
            return sum(isinstance(obj, StreamEvent) for obj in gc.get_objects())

        api.run(_WINDOW, volume=3000)  # first-use imports and caches
        before = events_tracked()
        report = api.run(_WINDOW, volume=3000)
        assert report.results[0].ok
        # What the caller's collections can meet is the report's: none
        # of the 3 000 events is left for any of them to walk.
        assert events_tracked() <= before

    def test_cyclic_garbage_of_a_run_is_still_collected(self, monkeypatch):
        refs: list[weakref.ref] = []
        original = TestGenerator.select_data

        class Node:
            pass

        def cyclic(self, *args, **kwargs):
            node = Node()
            node.self = node
            refs.append(weakref.ref(node))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TestGenerator, "select_data", cyclic)
        api.run(_WINDOW, volume=300)
        # Left for the young collection after the run, as the
        # collector's next automatic pass makes it.
        gc.collect(0)
        assert refs and all(ref() is None for ref in refs)


class TestLoadAgainstAWorkload:
    def test_each_request_runs_with_the_collector_off(self, monkeypatch):
        readings: list[bool] = []
        original = PrescribedTest.run

        def probe(self, **overrides):
            readings.append(gc.isenabled())
            return original(self, **overrides)

        monkeypatch.setattr(PrescribedTest, "run", probe)
        report = api.load(
            "micro-wordcount", rate=20, duration=0.2, clock="virtual", volume=30,
        )
        assert report.offered and len(readings) == report.offered
        assert not any(readings)
        assert gc.isenabled()

    def test_a_request_that_raises(self, monkeypatch):
        def fail(self, **overrides):
            raise RuntimeError("injected request failure")

        monkeypatch.setattr(PrescribedTest, "run", fail)
        report = api.load(
            "micro-wordcount", rate=20, duration=0.2, clock="virtual", volume=30,
        )
        assert report.offered
        assert gc.isenabled()


class TestWhoOwnsThePause:
    def test_a_callers_own_disable_survives(self):
        gc.disable()
        try:
            api.run("micro-wordcount", volume=40)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_nested_call_leaves_the_collector_to_the_outer_one(self):
        with _util.collector_paused():
            with _util.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_two_overlapping_runs(self, monkeypatch):
        both_inside = threading.Barrier(2, timeout=30)
        original = TestGenerator.select_data

        def overlapping(*args, **kwargs):
            both_inside.wait()
            return original(*args, **kwargs)

        monkeypatch.setattr(TestGenerator, "select_data", overlapping)
        errors: list[BaseException] = []

        def run() -> None:
            try:
                api.run("micro-wordcount", volume=40)
            except BaseException as caught:  # noqa: BLE001 - reported below
                errors.append(caught)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()


def _pause_once() -> None:
    with _util.collector_paused():
        pass


class TestProcessWorkers:
    def test_a_worker_runs_with_the_collector_on_between_tasks(self):
        runner = TestRunner(
            options=RunnerOptions(executor="process", max_workers=1)
        )
        try:
            tasks = [RunTask("micro-wordcount", "mapreduce", 30)] * 2
            assert all(outcome.ok for outcome in runner.run_many(tasks))
            pool = runner._worker_pool._state["pool"]
            assert pool.submit(gc.isenabled).result(timeout=60)
        finally:
            runner.close()
        assert gc.isenabled()

    def test_a_child_forked_while_the_lock_is_held_can_pause(self):
        context = multiprocessing.get_context("fork")
        with _util._COLLECTOR_LOCK:
            child = context.Process(target=_pause_once)
            child.start()
        child.join(timeout=30)
        stuck = child.is_alive()
        if stuck:
            child.kill()
            child.join(timeout=30)
        assert not stuck
        assert child.exitcode == 0
