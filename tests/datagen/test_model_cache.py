"""The fitted-model cache: one training per content address and process.

The digests were taken on the commit before the cache existed, through
the same prescription path: a hit must hand back a generator whose
seeded output is byte-identical to a fresh fit's.  ``micro-grep``'s is
``lda-text``'s output under generation version 2, taken when that
version went in (``tests/datagen/test_generation_version.py``).
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading

import numpy as np
import pytest

import repro  # noqa: F401 — fills the registries
from repro.core import prescription, registry
from repro.core.prescription import builtin_repository, load_seed
from repro.core.registry import Registry
from repro.core.test_generator import TestGenerator
from repro.datagen.base import DataGenerator, DataType
from repro.datagen import models
from repro.datagen.corpus import load_text_corpus
from repro.datagen.models import (
    PROCESS_MODELS,
    ModelCache,
    ModelUse,
    content_digest,
)
from repro.datagen.text import LdaModel, LdaTextGenerator
from repro.observability import Tracer

from tests._datasets import as_dataset

#: Tests about fitting start from no model on disk either.
pytestmark = pytest.mark.usefixtures("empty_cache_home")

#: prescription → (generator it names, volume, sha256 of the records).
PINNED = {
    "micro-grep": (
        "lda-text", 40,
        "e72e49a9a2a62d8f093c7d94363e8c6df502d3168fa35937f46013bb1104bb28",
    ),
    "search-pagerank": (
        "rmat-graph", 64,
        "edc7f3cc72d3c030c6d3a4651c73408c72066804e09574680d4d75522c2b0529",
    ),
    "database-aggregate-join": (
        "fitted-table", 80,
        "74f64e684b1fa944916d0f35416b08b8388c19eab67bac7f836e49f7b20b22eb",
    ),
}
LDA_40 = PINNED["micro-grep"][2]


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _lda(**parameters) -> LdaTextGenerator:
    return LdaTextGenerator(**{"iterations": 2, **parameters})


@pytest.fixture
def fit_count(monkeypatch):
    """The number of ``LdaModel.fit`` calls made so far, as ``fit_count()``."""
    calls = []
    original = LdaModel.fit

    def counted(self, documents):
        calls.append(threading.get_ident())
        return original(self, documents)

    monkeypatch.setattr(LdaModel, "fit", counted)
    return lambda: len(calls)


class TestPrescriptionPath:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_cold_and_warm_select_data_are_the_pinned_records(self, name):
        generator, volume, expected = PINNED[name]
        requirement = builtin_repository().get(name).data
        assert requirement.generator == generator
        cache = ModelCache()
        for hits in (0, 1):
            # A new TestGenerator each time: only the model is shared.
            dataset = TestGenerator(model_cache=cache).select_data(
                requirement, volume
            )
            assert _digest(dataset.records) == expected
            assert (cache.misses, cache.hits) == (1, hits)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_the_chunked_path_shares_the_entry(self, name):
        _, volume, expected = PINNED[name]
        requirement = builtin_repository().get(name).data
        cache = ModelCache()
        TestGenerator(model_cache=cache).select_data(requirement, volume)
        source = TestGenerator(model_cache=cache).select_data(
            requirement, volume, chunk_size=7
        )
        records = [record for batch in source.batches() for record in batch]
        assert _digest(records) == expected
        assert (cache.misses, cache.hits) == (1, 1)

    def test_the_default_is_the_process_wide_cache(self):
        assert TestGenerator().model_cache is PROCESS_MODELS
        assert len(PROCESS_MODELS) == 0  # conftest starts every test cold

    def test_function_layer_and_select_data_share_one_fit(self, fit_count):
        from repro.core.layers import BigDataBenchmark

        framework = BigDataBenchmark()
        direct = framework.function_layer.generate_data(
            "lda-text", 40, fit_on="text-corpus"
        )
        assert _digest(direct.records) == LDA_40
        framework.function_layer.test_generator.select_data(
            framework.prescription("micro-grep").data, 40
        )
        assert fit_count() == 1

    def test_a_generator_without_a_seed_source_never_comes_here(self):
        cache = ModelCache()
        generator = registry.generators.create("random-text")
        assert cache.fitted(generator, None) is generator
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


class TestSingleFlight:
    def test_two_threads_asking_for_one_key_run_one_fit(self, monkeypatch):
        cache = ModelCache()
        barrier = threading.Barrier(2)
        fitting = threading.Event()
        release = threading.Event()
        calls = []
        original = LdaModel.fit

        def slow_fit(self, documents):
            calls.append(1)
            fitting.set()
            release.wait(timeout=10)
            return original(self, documents)

        monkeypatch.setattr(LdaModel, "fit", slow_fit)
        digests = []

        def ask():
            barrier.wait(timeout=10)
            generator = cache.fitted(_lda(), "text-corpus")
            digests.append(_digest(generator.generate(5).records))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for thread in threads:
            thread.start()
        assert fitting.wait(timeout=10)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert (cache.misses, cache.hits) == (1, 1)
        assert len(set(digests)) == 1 and len(digests) == 2

    def test_a_raising_fit_leaves_no_entry_and_no_dead_lock(self, monkeypatch):
        cache = ModelCache()
        original = LdaModel.fit

        def explode(self, documents):
            raise RuntimeError("training failed")

        monkeypatch.setattr(LdaModel, "fit", explode)
        with pytest.raises(RuntimeError, match="training failed"):
            cache.fitted(_lda(), "text-corpus")
        assert len(cache) == 0 and cache._models._flights == {}
        assert (cache.misses, cache.hits) == (0, 0)
        monkeypatch.setattr(LdaModel, "fit", original)
        assert cache.fitted(_lda(), "text-corpus").is_fitted
        assert (cache.misses, len(cache)) == (1, 1)

    def test_many_threads_lose_no_update(self):
        # More workers than cores, switching often: every request is
        # either the one fit of its key or a hit on it.
        cache = ModelCache()
        workers, rounds, seeds = 8, 5, 3
        errors = []

        def ask(worker: int) -> None:
            try:
                for turn in range(rounds):
                    seed = (worker + turn) % seeds
                    generator = cache.fitted(
                        _lda(iterations=1, seed=seed), "text-corpus"
                    )
                    assert generator.seed == seed and generator.is_fitted
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
        assert cache.misses == seeds == len(cache)
        assert cache.hits + cache.misses == workers * rounds
        assert cache._models._flights == {}


class TestContentAddress:
    def test_seed_and_hyperparameters_make_different_entries(self, fit_count):
        cache = ModelCache()
        variants = [
            {}, {"seed": 1}, {"iterations": 3}, {"num_topics": 3},
            {"alpha": 0.2}, {"beta": 0.02},
        ]
        for parameters in variants:
            cache.fitted(_lda(**parameters), "text-corpus")
        assert fit_count() == len(cache) == len(variants)
        for parameters in variants:
            cache.fitted(_lda(**parameters), "text-corpus")
        assert fit_count() == len(variants)
        assert cache.hits == len(variants)

    def test_a_seed_set_after_construction_is_part_of_the_address(self):
        # What `repro generate --seed N` does to a registry-built generator.
        cache = ModelCache()
        reseeded = _lda()
        reseeded.seed = 5
        first = cache.fitted(reseeded, "text-corpus")
        second = cache.fitted(_lda(), "text-corpus")
        assert cache.misses == 2
        assert first.generate(5).records != second.generate(5).records

    def test_two_registries_binding_one_name_do_not_share(self, fit_count):
        cache = ModelCache()
        requirement = builtin_repository().get("micro-grep").data
        outputs = []
        for iterations in (1, 2):
            generators = Registry("data generator")
            generators.register(
                "lda-text", lambda n=iterations: LdaTextGenerator(iterations=n)
            )
            test_generator = TestGenerator(
                generator_registry=generators, model_cache=cache
            )
            outputs.append(test_generator.select_data(requirement, 10).records)
        assert fit_count() == 2 and cache.hits == 0
        assert outputs[0] != outputs[1]

    def test_a_subclass_is_another_generator(self, fit_count):
        class Mine(LdaTextGenerator):
            pass

        cache = ModelCache()
        cache.fitted(_lda(), "text-corpus")
        cache.fitted(Mine(iterations=2), "text-corpus")
        assert fit_count() == 2

    def test_other_seed_data_under_one_name_is_another_entry(
        self, monkeypatch, fit_count
    ):
        cache = ModelCache()
        usual = cache.fitted(_lda(), "text-corpus")
        smaller = load_text_corpus(num_documents=30, words_per_document=20)
        monkeypatch.setitem(
            prescription.SEED_SOURCES, "text-corpus", lambda: smaller
        )
        assert load_seed("text-corpus") is smaller
        other = cache.fitted(_lda(), "text-corpus")
        assert fit_count() == 2 and len(cache) == 2
        assert usual.generate(5).records != other.generate(5).records
        cache.fitted(_lda(), "text-corpus")
        assert fit_count() == 2

    def test_seed_sets_are_loaded_once(self):
        assert load_seed("social-graph") is load_seed("social-graph")

    def test_state_without_a_content_address_is_fitted_every_time(
        self, fit_count
    ):
        cache = ModelCache()
        for _ in range(2):
            generator = _lda()
            generator.hook = lambda: None
            with cache.recording() as uses:
                assert cache.fitted(generator, "text-corpus") is generator
            assert [use.cache for use in uses] == ["fitted"]
        assert fit_count() == 2 and len(cache) == 0

    def test_fit_called_directly_always_fits(self, fit_count):
        corpus = load_seed("text-corpus")
        PROCESS_MODELS.fitted(_lda(), "text-corpus")
        for _ in range(2):
            _lda().fit(corpus)
        assert fit_count() == 3 and len(PROCESS_MODELS) == 1

    @pytest.mark.parametrize(
        ("left", "right"),
        [
            (1, 1.0), (1, True), ("1", 1), ("ab", b"ab"), ((1, 2), [1, 2]),
            (["ab", "c"], ["a", "bc"]), ([[1], 2], [1, [2]]),
            ({"a": 1, "b": 2}, {"b": 2, "a": 1}), (None, "None"),
            (np.zeros(2), np.zeros(2, dtype=np.float32)),
            (np.zeros((2, 1)), np.zeros((1, 2))),
            (DataType.TEXT, DataType.TABLE),
            (LdaModel(seed=1), LdaModel(seed=2)),
        ],
    )
    def test_digests_tell_apart(self, left, right):
        assert content_digest(left) != content_digest(right)

    def test_equal_content_has_one_digest(self):
        assert content_digest({1, 2, 3}) == content_digest({3, 2, 1})
        assert content_digest(LdaModel(seed=1)) == content_digest(LdaModel(seed=1))
        # By content, not by memory layout: a transposed view.
        assert content_digest(np.arange(6).reshape(3, 2).T) == content_digest(
            np.array([[0, 2, 4], [1, 3, 5]])
        )
        with pytest.raises(TypeError, match="no content address"):
            content_digest([threading.Lock()])


class TestSharedFittedState:
    def test_refitting_one_holder_leaves_the_other_holders_output(self):
        cache = ModelCache()
        requirement = builtin_repository().get("micro-grep").data
        first = TestGenerator(model_cache=cache).select_data(
            requirement, 40, chunk_size=8
        )
        second = TestGenerator(model_cache=cache).select_data(
            requirement, 40, chunk_size=8
        )
        assert cache.hits == 1
        assert second.generator is not first.generator
        assert second.generator.model is first.generator.model  # shared
        shared = first.generator.model
        first.generator.fit(
            load_text_corpus(num_documents=30, words_per_document=20)
        )
        assert first.generator.model is not shared
        assert second.generator.model is shared
        assert _digest(second.materialize().records) == LDA_40
        assert _digest(first.materialize().records) != LDA_40
        # ... and the entry itself still serves the pinned model.
        third = TestGenerator(model_cache=cache).select_data(requirement, 40)
        assert _digest(third.records) == LDA_40

    def test_refitting_the_generator_that_missed_leaves_the_entry(self):
        cache = ModelCache()
        mine = cache.fitted(_lda(), "text-corpus")
        before = _digest(mine.generate(10).records)
        mine.fit(load_text_corpus(num_documents=30, words_per_document=20))
        theirs = cache.fitted(_lda(), "text-corpus")
        assert _digest(theirs.generate(10).records) == before

    def test_writing_into_a_cached_phi_raises(self):
        generator = ModelCache().fitted(_lda(), "text-corpus")
        with pytest.raises(ValueError, match="read-only"):
            generator.model.phi[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            generator.model._word_cdfs[0] *= 2

    @pytest.mark.parametrize(
        ("name", "source"),
        [
            ("lda-text", "text-corpus"),
            ("unigram-text", "text-corpus"),
            ("rmat-graph", "social-graph"),
            ("pa-graph", "social-graph"),
            ("fitted-table", "retail-orders"),
        ],
    )
    def test_no_fitted_array_is_writable(self, name, source):
        generator = registry.generators.create(name).fit(load_seed(source))
        arrays = []

        def walk(value):
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)
            elif hasattr(value, "__dict__") and not isinstance(value, type):
                for item in vars(value).values():
                    walk(item)

        walk(generator)
        assert not [array for array in arrays if array.flags.writeable]
        if name in ("lda-text", "unigram-text", "fitted-table"):
            assert arrays

    def test_a_cached_generator_does_not_change_while_generating(self):
        cache = ModelCache()
        generator = cache.fitted(_lda(), "text-corpus")
        before = content_digest(generator)
        generator.generate(20)
        list(generator.iter_batches(20, chunk_size=3, num_partitions=2))
        assert content_digest(generator) == before


class TestBound:
    def test_the_least_recently_used_entry_is_evicted(
        self, fit_count, monkeypatch
    ):
        monkeypatch.setattr(models, "MAX_MODELS", 2)
        cache = ModelCache()
        for seed in (0, 1):
            cache.fitted(_lda(seed=seed), "text-corpus")
        cache.fitted(_lda(seed=0), "text-corpus")  # 1 is now the oldest
        cache.fitted(_lda(seed=2), "text-corpus")
        assert len(cache) == 2 and fit_count() == 3
        cache.fitted(_lda(seed=0), "text-corpus")
        assert fit_count() == 3 and cache.misses == 3
        # Evicted from memory, still on disk: a miss that fits nothing.
        with cache.recording() as uses:
            cache.fitted(_lda(seed=1), "text-corpus")
        assert [use.cache for use in uses] == ["disk"]
        assert fit_count() == 3 and cache.misses == 4

    def test_clear_forgets_entries_and_counters(self):
        cache = ModelCache()
        cache.fitted(_lda(), "text-corpus")
        cache.fitted(_lda(), "text-corpus")
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


class TestReporting:
    def test_recording_states_what_this_call_did(self):
        cache = ModelCache()
        with cache.recording() as cold:
            cache.fitted(_lda(), "text-corpus")
        with cache.recording() as warm:
            cache.fitted(_lda(), "text-corpus")
        assert [use.cache for use in cold] == ["fitted"]
        assert cold[0].source == "text-corpus" and cold[0].fit_seconds > 0
        assert warm == [ModelUse("text-corpus", "hit", 0.0)]
        assert warm[0].as_dict() == {
            "source": "text-corpus", "cache": "hit", "fit_seconds": 0.0,
        }

    def test_recording_is_per_thread_and_nests(self):
        cache = ModelCache()
        with cache.recording() as outer:
            thread = threading.Thread(
                target=lambda: cache.fitted(_lda(), "text-corpus")
            )
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            with cache.recording() as inner:
                cache.fitted(_lda(), "text-corpus")
            cache.fitted(_lda(seed=1), "text-corpus")
        assert [use.cache for use in inner] == ["hit"]
        assert [use.cache for use in outer] == ["fitted"]

    def test_the_fit_span_appears_only_when_a_fit_ran(self):
        requirement = builtin_repository().get("micro-grep").data
        cache = ModelCache()
        seen = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.activate():
                TestGenerator(model_cache=cache).select_data(requirement, 10)
            (root,) = tracer.roots()
            assert root.name == "select-data"
            seen.append(
                (
                    [child.name for child in root.children],
                    root.counters.get("cache.model_misses", 0),
                    root.counters.get("cache.model_hits", 0),
                )
            )
        assert seen == [(["fit", "generate"], 1, 0), (["generate"], 0, 1)]

    def test_the_step_report_and_the_outcomes_carry_the_model_line(self):
        from repro import api

        cold = api.run("micro-grep", volume=30)
        warm = api.run("micro-grep", volume=30)
        plain = api.run("micro-wordcount", volume=30)
        detail = cold.step("data-generation").detail["model"]
        assert detail["source"] == "text-corpus"
        assert detail["cache"] == "fitted" and detail["fit_seconds"] > 0
        assert cold.results[0].extra["model"] == detail
        assert warm.step("data-generation").detail["model"] == {
            "source": "text-corpus", "cache": "hit", "fit_seconds": 0.0,
        }
        assert warm.results[0].as_dict()["extra"]["model"]["cache"] == "hit"
        assert "model" not in plain.step("data-generation").detail
        assert "model" not in plain.results[0].extra


class _Stalled(DataGenerator):
    """A generator whose fit waits until it is told to go on."""

    veracity_aware = True
    started = threading.Event()
    go_on = threading.Event()

    def fit(self, real_data):
        type(self).started.set()
        type(self).go_on.wait(timeout=30)
        return super().fit(real_data)

    def iter_partition(self, volume, partition, num_partitions):
        yield from ()


def test_a_forked_child_does_not_wait_for_the_parents_fit():
    # The process-wide cache is what forked pool workers inherit.  A fit
    # in flight at fork time has no thread in the child to finish it.
    thread = threading.Thread(
        target=lambda: PROCESS_MODELS.fitted(_Stalled(), "text-corpus")
    )
    thread.start()
    try:
        assert _Stalled.started.wait(timeout=10)
        assert len(PROCESS_MODELS._models._flights) == 1
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                _Stalled.go_on.set()  # the child's copy of the event
                fitted = PROCESS_MODELS.fitted(_Stalled(), "text-corpus")
                status = 0 if fitted.is_fitted else 2
            finally:
                os._exit(status)
        deadline = threading.Event()
        for _ in range(200):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            deadline.wait(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on its parent's flight")
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        _Stalled.go_on.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_as_dataset_records_digest_like_the_seed_sets():
    left = as_dataset(["a b", "c"], DataType.TEXT, name="s")
    same = as_dataset(["a b", "c"], DataType.TEXT, name="s")
    other = as_dataset(["a b", "d"], DataType.TEXT, name="s")
    assert content_digest(left) == content_digest(same) != content_digest(other)
