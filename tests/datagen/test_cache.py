"""Tests for the deterministic dataset cache."""

from __future__ import annotations

import threading

import pytest

from repro.core.test_generator import TestGenerator
from repro.datagen.base import DataSet, DataType
from repro.datagen.cache import CacheStats, DatasetCache
from repro.execution.runner import TestRunner


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
        assert cache._key_locks == {}
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

    def test_lru_eviction(self):
        cache = DatasetCache(max_entries=2)
        keys = [DatasetCache.make_key("g", seed, 10) for seed in range(3)]
        for key in keys:
            cache.get_or_generate(key, _dataset)
        assert len(cache) == 2
        assert keys[0] not in cache  # least recently used was dropped
        assert keys[1] in cache and keys[2] in cache

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            DatasetCache(max_entries=0)

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
        results = runner.run_on_engines("database-aggregate-join", engines, 60)
        stats = runner.test_generator.dataset_cache.stats()
        assert stats.misses == 1
        assert stats.hits == len(engines) - 1
        for result in results:
            assert result.extra["dataset_cache"]["misses"] == 1

    def test_run_on_engines_reports_per_call_deltas(self):
        runner = TestRunner()
        engines = ["dbms", "mapreduce", "nosql"]
        runner.run_on_engines("database-aggregate-join", engines, 60)
        results = runner.run_on_engines("database-aggregate-join", engines, 60)
        # The second call is fully served from cache, and its results must
        # carry that call's delta — not process-lifetime totals.
        for result in results:
            assert result.extra["dataset_cache"]["misses"] == 0
            assert result.extra["dataset_cache"]["hits"] == len(engines)
        lifetime = runner.test_generator.dataset_cache.stats()
        assert lifetime.misses == 1
        assert lifetime.hits == 2 * len(engines) - 1

    def test_repeats_share_the_cached_dataset(self):
        from repro.execution.runner import RunnerOptions

        runner = TestRunner(options=RunnerOptions(repeats=3))
        runner.run("micro-wordcount", "mapreduce", 30)
        runner.run("micro-wordcount", "mapreduce", 30)
        stats = runner.test_generator.dataset_cache.stats()
        assert stats.misses == 1
        assert stats.hits == 1


class TestSpillToDisk:
    """Budgeted caches spill LRU entries to disk and re-stream them."""

    def _cache(self, tmp_path, budget):
        return DatasetCache(
            max_entries=32, max_resident_bytes=budget, spill_dir=tmp_path
        )

    def _put(self, cache, name, records=50):
        key = DatasetCache.make_key(name, 0, records)
        cache.get_or_generate(key, lambda: _dataset(name, records))
        return key

    def test_over_budget_entries_spill(self, tmp_path):
        one = _dataset("a", 50)
        cache = self._cache(tmp_path, one.estimated_bytes() + 1)
        self._put(cache, "a")
        self._put(cache, "b")
        stats = cache.stats()
        assert stats.spills == 1
        assert stats.spilled_entries == 1
        assert stats.resident_bytes <= one.estimated_bytes() + 1
        assert list(tmp_path.glob("spill-*.pkl"))

    def test_spilled_entry_restores_on_hit(self, tmp_path):
        one = _dataset("a", 50)
        cache = self._cache(tmp_path, one.estimated_bytes() + 1)
        key_a = self._put(cache, "a")
        self._put(cache, "b")
        restored = cache.get_or_generate(key_a, lambda: _dataset("x", 1))
        # Served from the spill file, not the factory.
        assert restored.records == _dataset("a", 50).records
        assert cache.stats().spill_hits == 1

    def test_get_source_restreams_without_loading(self, tmp_path):
        from repro.datagen.cache import SpilledDatasetSource

        one = _dataset("a", 50)
        cache = self._cache(tmp_path, one.estimated_bytes() + 1)
        key_a = self._put(cache, "a")
        self._put(cache, "b")
        source = cache.get_source(key_a)
        assert isinstance(source, SpilledDatasetSource)
        assert source.num_records == 50
        streamed = [record for batch in source.batches(7) for record in batch]
        assert streamed == _dataset("a", 50).records
        # Re-streaming does not restore residency.
        assert cache.stats().spilled_entries == 1

    def test_get_source_returns_resident_dataset(self, tmp_path):
        cache = self._cache(tmp_path, None)
        key = self._put(cache, "a")
        assert isinstance(cache.get_source(key), DataSet)

    def test_unbudgeted_cache_never_spills(self, tmp_path):
        cache = DatasetCache(spill_dir=tmp_path)
        self._put(cache, "a")
        self._put(cache, "b")
        assert cache.stats().spills == 0
        assert not list(tmp_path.glob("spill-*.pkl"))

    def test_clear_removes_spill_files(self, tmp_path):
        one = _dataset("a", 50)
        cache = self._cache(tmp_path, one.estimated_bytes() + 1)
        self._put(cache, "a")
        self._put(cache, "b")
        assert list(tmp_path.glob("spill-*.pkl"))
        cache.clear()
        assert not list(tmp_path.glob("spill-*.pkl"))
        assert cache.stats().spills == 0

    def test_stats_hide_spill_fields_until_used(self):
        stats = DatasetCache().stats()
        assert "spills" not in stats.as_dict()

    def test_budget_without_spill_dir_evicts(self, tmp_path):
        one = _dataset("a", 50)
        cache = DatasetCache(max_resident_bytes=one.estimated_bytes() + 1)
        key_a = self._put(cache, "a")
        self._put(cache, "b")
        stats = cache.stats()
        assert stats.spills == 0
        assert stats.entries == 1
        # The evicted entry regenerates on demand.
        calls = []
        cache.get_or_generate(
            key_a, lambda: calls.append(1) or _dataset("a", 50)
        )
        assert calls == [1]
