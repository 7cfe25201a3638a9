"""Tests for the deterministic dataset cache and the LRU under both caches."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core.test_generator import TestGenerator
from repro.datagen import cache as cache_module
from repro.datagen.base import DataSet, DataType
from repro.datagen.cache import CacheStats, DatasetCache, LruCache
from repro.datagen.models import ModelCache
from repro.execution.runner import TestRunner
from tests._runs import run_on_engines, run_one


def _dataset(name: str = "d", records: int = 3) -> DataSet:
    return DataSet(
        name=name, data_type=DataType.TEXT, records=[f"r{i}" for i in range(records)]
    )


class TestMakeKey:
    def test_identical_requests_share_a_key(self):
        assert DatasetCache.make_key("random-text", 7, 100) == DatasetCache.make_key(
            "random-text", 7, 100
        )

    def test_seed_isolates_entries(self):
        assert DatasetCache.make_key("random-text", 7, 100) != DatasetCache.make_key(
            "random-text", 8, 100
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"volume": 200},
            {"num_partitions": 4},
            {"fit_on": "text-corpus"},
            {"params": {"alpha": 0.5}},
        ],
    )
    def test_every_field_participates(self, kwargs):
        base = dict(generator="g", seed=1, volume=100)
        assert DatasetCache.make_key(**base) != DatasetCache.make_key(
            **{**base, **kwargs}
        )

    def test_param_order_does_not_matter(self):
        assert DatasetCache.make_key(
            "g", 1, 10, params={"a": 1, "b": 2}
        ) == DatasetCache.make_key("g", 1, 10, params={"b": 2, "a": 1})


class TestGetOrGenerate:
    def test_factory_runs_once(self):
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)
        calls = []

        def factory():
            calls.append(1)
            return _dataset()

        first = cache.get_or_generate(key, factory)
        second = cache.get_or_generate(key, factory)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_keys_generate_separately(self):
        cache = DatasetCache()
        a = cache.get_or_generate(DatasetCache.make_key("g", 0, 10), _dataset)
        b = cache.get_or_generate(DatasetCache.make_key("g", 1, 10), _dataset)
        assert a is not b
        assert cache.misses == 2

    def test_concurrent_same_key_generates_once(self):
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)
        calls = []
        gate = threading.Event()

        def factory():
            gate.wait(timeout=5)
            calls.append(1)
            return _dataset()

        threads = [
            threading.Thread(
                target=lambda: cache.get_or_generate(key, factory)
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(calls) == 1
        assert cache.misses == 1 and cache.hits == 3

    def test_raising_factory_releases_the_key_lock(self):
        # Regression: a raising factory used to leak the per-key lock,
        # leaving it in the table (and, worse, permanently held on
        # Python builds where the with-block unwind was interrupted).
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)

        def explode():
            raise RuntimeError("generation failed")

        with pytest.raises(RuntimeError):
            cache.get_or_generate(key, explode)
        assert cache._flights == {}
        # The key stays generatable: the next caller must not deadlock
        # or see a stale entry.
        assert cache.get_or_generate(key, _dataset).name == "d"
        assert key in cache

    def test_raising_factory_counts_no_miss(self):
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)
        with pytest.raises(RuntimeError):
            cache.get_or_generate(key, lambda: (_ for _ in ()).throw(
                RuntimeError("boom")
            ))
        assert cache.stats() == CacheStats(hits=0, misses=0, entries=0)

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_DATASETS", 2)
        cache = DatasetCache()
        keys = [DatasetCache.make_key("g", seed, 10) for seed in range(3)]
        for key in keys:
            cache.get_or_generate(key, _dataset)
        assert len(cache) == 2
        assert keys[0] not in cache  # least recently used was dropped
        assert keys[1] in cache and keys[2] in cache

    def test_clear_resets_counters(self):
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)
        cache.get_or_generate(key, _dataset)
        cache.get_or_generate(key, _dataset)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == CacheStats(hits=0, misses=0, entries=0)
        assert cache.stats().hit_rate == 0.0

    def test_stats_hit_rate(self):
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)
        cache.get_or_generate(key, _dataset)
        cache.get_or_generate(key, _dataset)
        cache.get_or_generate(key, _dataset)
        stats = cache.stats()
        assert stats == CacheStats(hits=2, misses=1, entries=1)
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.as_dict() == {
            "hits": 2, "misses": 1, "entries": 1, "hit_rate": 2 / 3,
        }

    def test_stats_since_reports_the_delta(self):
        cache = DatasetCache()
        key = DatasetCache.make_key("g", 0, 10)
        cache.get_or_generate(key, _dataset)
        before = cache.stats()
        cache.get_or_generate(key, _dataset)
        cache.get_or_generate(key, _dataset)
        delta = cache.stats().since(before)
        assert delta == CacheStats(hits=2, misses=0, entries=1)
        assert delta.hit_rate == 1.0


@pytest.fixture(params=["datasets", "models", "sizes"])
def table(request) -> LruCache:
    """Each table the two generation caches keep, fresh."""
    if request.param == "datasets":
        return DatasetCache()
    return getattr(ModelCache(), f"_{request.param}")


class TestLruCache:
    """The one bounded, single-flight LRU, as each cache holds it."""

    def test_one_caller_makes_a_key_the_others_wait_and_share(self, table):
        gate = threading.Event()
        calls, values = [], []

        def make():
            gate.wait(timeout=5)
            calls.append(1)
            return object()

        threads = [
            threading.Thread(
                target=lambda: values.append(table.get_or_make("k", make))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(calls) == 1 and len({id(value) for value, _ in values}) == 1
        assert sorted(made for _, made in values) == [False, False, False, True]
        assert (table.misses, table.hits) == (1, 3)
        assert table._flights == {}

    def test_many_threads_lose_no_update(self, table):
        # More threads than cores, switching often: every request is
        # either the one make of its key or a hit on it.
        workers, rounds, keys = 8, 50, 3
        errors = []

        def ask(worker: int) -> None:
            try:
                for turn in range(rounds):
                    key = (worker + turn) % keys
                    value, _ = table.get_or_make(key, lambda: [key])
                    assert value == [key]
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=ask, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert table.stats() == CacheStats(
            hits=workers * rounds - keys, misses=keys, entries=keys
        )
        assert table._flights == {}

    def test_a_raising_make_leaves_no_entry_no_flight_and_no_count(self, table):
        def explode():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            table.get_or_make("k", explode)
        assert table._flights == {} and "k" not in table
        assert table.stats() == CacheStats(hits=0, misses=0, entries=0)
        assert table.get_or_make("k", lambda: 7) == (7, True)
        assert table.get_or_make("k", explode) == (7, False)

    def test_the_least_recently_used_entry_is_evicted(self, table):
        table.capacity = 2
        for key in "ab":
            table.put(key, key.upper())
        assert table.get("a") == "A"  # b is now the oldest
        table.put("c", "C")
        assert len(table) == 2 and "b" not in table
        assert table.peek("a") == "A" and table.peek("c") == "C"

    def test_a_forked_child_does_not_wait_for_a_parents_flight(self, table):
        table.put("kept", 1)
        started, go_on = threading.Event(), threading.Event()

        def slow():
            started.set()
            go_on.wait(timeout=30)
            return 2

        thread = threading.Thread(target=lambda: table.get_or_make("k", slow))
        thread.start()
        try:
            assert started.wait(timeout=10) and len(table._flights) == 1
            with table._lock:
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    table.after_fork()
                    made = table.get_or_make("k", lambda: 3)
                    status = 0 if (made, table.peek("kept")) == ((3, True), 1) else 2
                finally:
                    os._exit(status)
            for _ in range(200):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's flight")
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            go_on.set()
            thread.join(timeout=30)
        assert table.get_or_make("k", lambda: 3) == (2, False)


class TestGeneratorIntegration:
    def test_generation_happens_once_per_unique_request(self, monkeypatch):
        generator = TestGenerator()
        calls = []
        original = TestGenerator._generate_data

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TestGenerator, "_generate_data", counting)
        for engine in ("dbms", "mapreduce", "nosql"):
            generator.generate("database-aggregate-join", engine, 50)
        assert len(calls) == 1
        assert generator.dataset_cache.stats().hits == 2

    def test_cached_datasets_are_shared_objects(self):
        generator = TestGenerator()
        first = generator.generate("database-aggregate-join", "dbms", 50)
        second = generator.generate("database-aggregate-join", "mapreduce", 50)
        assert first.dataset is second.dataset

    def test_volume_override_isolates_entries(self):
        generator = TestGenerator()
        small = generator.generate("micro-wordcount", "mapreduce", 20)
        large = generator.generate("micro-wordcount", "mapreduce", 40)
        assert small.dataset is not large.dataset
        assert generator.dataset_cache.misses == 2


class TestRunnerIntegration:
    def test_run_on_engines_generates_once(self):
        runner = TestRunner()
        engines = ["dbms", "mapreduce", "nosql"]
        before = runner.test_generator.dataset_cache.stats()
        results = run_on_engines(runner, "database-aggregate-join", engines, 60)
        stats = runner.test_generator.dataset_cache.stats()
        assert stats.misses == 1
        assert stats.hits == len(engines) - 1
        assert runner.cache_delta(before, results).misses == 1

    def test_run_on_engines_reports_per_call_deltas(self):
        runner = TestRunner()
        engines = ["dbms", "mapreduce", "nosql"]
        run_on_engines(runner, "database-aggregate-join", engines, 60)
        before = runner.test_generator.dataset_cache.stats()
        results = run_on_engines(runner, "database-aggregate-join", engines, 60)
        # The second call is fully served from cache, and its delta is
        # that call's — not process-lifetime totals.
        delta = runner.cache_delta(before, results)
        assert (delta.misses, delta.hits) == (0, len(engines))
        lifetime = runner.test_generator.dataset_cache.stats()
        assert lifetime.misses == 1
        assert lifetime.hits == 2 * len(engines) - 1

    def test_repeats_share_the_cached_dataset(self):
        from repro.execution.runner import RunnerOptions

        runner = TestRunner(options=RunnerOptions(repeats=3))
        run_one(runner, "micro-wordcount", "mapreduce", 30)
        run_one(runner, "micro-wordcount", "mapreduce", 30)
        stats = runner.test_generator.dataset_cache.stats()
        assert stats.misses == 1
        assert stats.hits == 1

