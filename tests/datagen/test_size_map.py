"""The size map: a data set is measured once per content address and process.

``estimated_bytes()`` walks every record, and what it returns is a
function of what the fitted-model cache already calls a content address
(the generator's class and whole unfitted state, the fit source and its
data) plus the volume and the partition count.  ``ModelCache`` keeps the
integer, never the records; these tests hold it to the rule the model
entries follow: anything that can change a record changes the address.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading

import pytest

import repro  # noqa: F401 — fills the registries
from repro import api
from repro.core import prescription
from repro.core.prescription import builtin_repository
from repro.core.process import BenchmarkingProcess
from repro.core.registry import Registry
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.datagen import models
from repro.datagen.base import DataSet, DataType
from repro.datagen.cache import DatasetCache
from repro.datagen.corpus import load_text_corpus
from repro.datagen.models import PROCESS_MODELS, ModelCache, ModelUse, SizeUse
from repro.datagen.stream import StreamGenerator
from repro.datagen.text import RandomTextGenerator

WORDCOUNT = builtin_repository().get("micro-wordcount").data
WINDOW = builtin_repository().get("realtime-windowed-aggregation").data
GREP = builtin_repository().get("micro-grep").data


@pytest.fixture
def walks(monkeypatch):
    """``walks()`` → how many data sets have been walked for their size."""
    walked = []
    original = DataSet.estimated_bytes

    def counted(self):
        walked.append(self.name)
        return original(self)

    monkeypatch.setattr(DataSet, "estimated_bytes", counted)
    return lambda: len(walked)


def _select(
    cache: ModelCache, requirement=WORDCOUNT, volume=40, partitions=None,
    **options,
):
    """``(data set, how it was sized)`` through a new ``TestGenerator``:
    only ``cache`` is shared."""
    test_generator = TestGenerator(model_cache=cache, **options)
    with cache.recording() as uses:
        dataset = test_generator.select_data(requirement, volume, partitions)
    (size,) = [use for use in uses if isinstance(use, SizeUse)]
    assert dataset.known_bytes == size.nbytes
    return dataset, size.sizing


class TestOncePerAddress:
    @pytest.mark.parametrize("requirement", [WORDCOUNT, WINDOW, GREP])
    def test_the_second_generation_is_not_walked(self, walks, requirement):
        cache = ModelCache()
        first, sizing = _select(cache, requirement)
        assert (sizing, walks()) == ("measured", 1)
        again, sizing = _select(cache, requirement)
        assert (sizing, walks()) == ("known", 1)
        assert again is not first and again.records == first.records
        assert again.known_bytes == first.known_bytes

    def test_the_number_is_what_a_walk_returns(self):
        cache = ModelCache()
        for requirement in (WORDCOUNT, WINDOW):
            for _ in range(2):
                dataset, _ = _select(cache, requirement, 75)
                assert dataset.known_bytes == dataset.estimated_bytes()

    def test_the_report_says_measured_then_known(self):
        details = [
            api.run("micro-wordcount", volume=30).step("data-generation").detail
            for _ in range(2)
        ]
        assert [detail["sizing"] for detail in details] == ["measured", "known"]
        assert details[0]["bytes"] == details[1]["bytes"] > 0

    def test_a_cached_data_set_is_neither(self):
        process = BenchmarkingProcess()
        spec = BenchmarkSpec("micro-grep", volume=20)
        cold = process.execute(spec).step("data-generation").detail
        warm = process.execute(spec).step("data-generation").detail
        assert cold["sizing"] == "measured" and "model" in cold
        # Nothing was generated the second time: no fit, no sizing.
        assert "sizing" not in warm and "model" not in warm
        assert warm["bytes"] == cold["bytes"]

    def test_the_fit_is_recorded_before_the_size(self):
        cache = ModelCache()
        with cache.recording() as uses:
            TestGenerator(model_cache=cache).select_data(GREP, 10)
        assert [type(use) for use in uses] == [ModelUse, SizeUse]

    def test_a_streamed_source_is_never_sized(self, walks):
        cache = ModelCache()
        source = TestGenerator(model_cache=cache).select_data(
            WORDCOUNT, 40, chunk_size=8
        )
        assert sum(len(batch) for batch in source.batches()) == 40
        assert walks() == 0 and len(cache._sizes) == 0


class TestContentAddress:
    def test_volume_partitions_and_seed_are_part_of_the_address(self, walks):
        cache = ModelCache()
        reseeded = Registry("data generator")
        reseeded.register("random-text", lambda: RandomTextGenerator(seed=1))
        variants = [
            dict(volume=40),
            dict(volume=41),
            dict(volume=40, partitions=2),
            dict(volume=40, partitions=3),
            dict(volume=40, generator_registry=reseeded),
        ]
        sizes = [_select(cache, **options)[0].known_bytes for options in variants]
        assert walks() == len(cache._sizes) == len(variants)
        assert [
            _select(cache, **options)[0].known_bytes for options in variants
        ] == sizes
        assert walks() == len(variants)

    def test_two_registries_binding_one_name_never_share(self, walks):
        class Shouting(RandomTextGenerator):
            def generate_partition(self, volume, partition, num_partitions):
                records = super().generate_partition(volume, partition, num_partitions)
                return [record.upper() + "!" for record in records]

        cache = ModelCache()
        bindings = [
            lambda: RandomTextGenerator(),
            lambda: RandomTextGenerator(document_length=7),
            lambda: RandomTextGenerator(words=["a", "bb"]),
            lambda: Shouting(),
        ]
        sizes = []
        for binding in bindings:
            generators = Registry("data generator")
            generators.register("random-text", binding)
            dataset, sizing = _select(cache, generator_registry=generators)
            assert sizing == "measured"
            sizes.append(dataset.known_bytes)
        assert walks() == len(bindings) == len(set(sizes))

    def test_the_fit_source_and_its_data_are_part_of_the_address(
        self, walks, monkeypatch
    ):
        cache = ModelCache()
        unfitted = dataclasses.replace(WORDCOUNT, fit_on=None)
        fitted = dataclasses.replace(WORDCOUNT, fit_on="text-corpus")
        # ``random-text`` ignores what it is fitted on; the address does not.
        assert _select(cache, unfitted)[1] == "measured"
        assert _select(cache, fitted)[1] == "measured"
        assert _select(cache, GREP)[1] == "measured"
        smaller = load_text_corpus(num_documents=30, words_per_document=20)
        monkeypatch.setitem(
            prescription.SEED_SOURCES, "text-corpus", lambda: smaller
        )
        assert _select(cache, GREP)[1] == "measured"
        assert _select(cache, GREP)[1] == "known"
        assert walks() == 4

    def test_a_generator_without_an_address_is_measured_every_time(self, walks):
        def hooked():
            generator = RandomTextGenerator()
            generator.hook = lambda: None  # no content address
            return generator

        generators = Registry("data generator")
        generators.register("random-text", hooked)
        cache = ModelCache()
        for count in (1, 2, 3):
            dataset, sizing = _select(cache, generator_registry=generators)
            assert (sizing, walks()) == ("measured", count)
            assert dataset.known_bytes == sum(map(len, dataset.records))
        assert len(cache._sizes) == 0


class TestWhatIsKept:
    def test_integers_only(self):
        cache = ModelCache()
        _select(cache, WINDOW, 200)
        ((address, nbytes),) = cache._sizes.items()
        assert type(nbytes) is int
        digest, source, seed_digest, volume, partitions = address
        assert (type(digest), source, seed_digest) == (str, None, None)
        assert (volume, partitions) == (200, 1)

    def test_the_map_is_bounded(self, walks, monkeypatch):
        monkeypatch.setattr(models, "MAX_SIZES", 2)
        cache = ModelCache()
        for volume in (10, 11, 12):
            _select(cache, volume=volume)
        assert len(cache._sizes) == 2
        assert _select(cache, volume=12)[1] == "known"
        assert _select(cache, volume=10)[1] == "measured"  # the oldest went

    def test_clear_forgets_the_sizes(self):
        cache = ModelCache()
        _select(cache)
        cache.clear()
        assert len(cache._sizes) == 0
        assert _select(cache)[1] == "measured"

    def test_every_test_starts_with_an_empty_process_map(self):
        assert len(PROCESS_MODELS._sizes) == 0  # conftest clears it

    def test_the_dataset_cache_takes_the_size_a_data_set_carries(self, walks):
        dataset = DataSet("d", DataType.TEXT, ["ab", "cde"])
        cache = DatasetCache()
        cache.put(("walked",), dataset)
        assert (cache.size_of(dataset), walks()) == (5, 1)
        dataset.known_bytes = 5
        cache.put(("carried",), dataset)
        assert walks() == 1
        # The number belongs to these records: a copy with others has none.
        assert dataclasses.replace(dataset, records=["x"]).known_bytes is None
        assert dataset.estimated_bytes() == 5 and walks() == 2  # always a walk


class TestSharing:
    def test_eight_threads_asking_at_once_agree(self):
        cache = ModelCache()
        dataset = StreamGenerator(seed=3).generate(400)
        expected = dataset.estimated_bytes()
        address = ("digest", None, None, 400, 1)
        answers: list[int] = []
        start = threading.Barrier(8)

        def ask() -> None:
            start.wait(timeout=30)
            for _ in range(25):
                answers.append(cache.dataset_bytes(address, dataset))
                cache.dataset_bytes(("other", len(answers) % 7), dataset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [expected] * 200
        assert cache._sizes[address] == expected and len(cache._sizes) == 8

    def test_a_forked_child_reads_the_parents_sizes_without_its_lock(self):
        # Forked pool workers inherit the process-wide map.  A lock held
        # at fork time (a scheduler thread mid-lookup) has no thread in
        # the child to release it.
        dataset, _ = _select(PROCESS_MODELS, WINDOW, 60)
        (address,) = PROCESS_MODELS._sizes
        with PROCESS_MODELS._lock:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with PROCESS_MODELS.recording() as uses:
                        nbytes = PROCESS_MODELS.dataset_bytes(address, dataset)
                    known = uses == [SizeUse("known", dataset.known_bytes)]
                    status = 0 if known and nbytes == dataset.known_bytes else 2
                finally:
                    os._exit(status)
            waited = threading.Event()
            for _ in range(200):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                waited.wait(0.05)
            else:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's lock")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_a_process_pool_run_reads_the_size_a_serial_run_measured(self):
        reports = [
            api.run(
                "database-aggregate-join", volume=60, executor=executor,
                max_workers=2,
            )
            for executor in ("serial", "process")
        ]
        assert not any(report.failures for report in reports)
        serial, forked = (
            report.step("data-generation").detail for report in reports
        )
        assert (serial["sizing"], forked["sizing"]) == ("measured", "known")
        assert serial["bytes"] == forked["bytes"]
