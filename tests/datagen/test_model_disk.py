"""Fitted models on disk: what one process fits, the next one reads.

Every test has an empty ``XDG_CACHE_HOME`` of its own.  "Another
process" is a new :class:`ModelCache` (its memory starts empty, as a new
process's does) unless the test starts real processes.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro  # noqa: F401 — fills the registries
from repro import _filecache
from repro.core import prescription, registry
from repro.datagen import models
from repro.datagen.base import DataType
from repro.datagen.models import MODEL_FORMAT, ModelCache

pytestmark = pytest.mark.usefixtures("empty_cache_home")

SRC = Path(__file__).resolve().parents[2] / "src"

#: The built-in seed source each data type can be fitted on.
SOURCE_OF = {
    DataType.TEXT: "text-corpus",
    DataType.GRAPH: "social-graph",
    DataType.TABLE: "retail-orders",
}

#: Every registered generator that some built-in seed source can fit.
FITTABLE = sorted(
    (name, SOURCE_OF[registry.generators.create(name).data_type])
    for name in registry.generators.names()
    if registry.generators.create(name).data_type in SOURCE_OF
)


def _digest(records) -> str:
    """sha256 over every record's ``repr`` and every element's type."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(repr([type(item) for item in record]
                           if isinstance(record, tuple) else type(record)).encode())
    return digest.hexdigest()


def _fitted(name: str, source: str, cache: ModelCache | None = None):
    """``name`` through a cache (a new one: a new process's memory), and
    what that request did."""
    cache = ModelCache() if cache is None else cache
    with cache.recording() as uses:
        generator = cache.fitted(registry.generators.create(name), source)
    return generator, [use.cache for use in uses]


def _model_files(home: Path) -> list[Path]:
    return sorted((home / "repro" / "models").glob("*"))


@pytest.mark.parametrize(("name", "source"), FITTABLE, ids=[n for n, _ in FITTABLE])
def test_a_model_read_from_disk_generates_what_a_fresh_fit_does(name, source):
    fresh, first = _fitted(name, source)
    restored, second = _fitted(name, source)
    assert (first, second) == (["fitted"], ["disk"])
    for volume, partitions in ((60, 1), (45, 3)):
        assert _digest(
            restored.generate_parallel(volume, partitions).records
        ) == _digest(fresh.generate_parallel(volume, partitions).records)


def test_the_prescriptions_with_a_seed_source_are_covered():
    named = {
        (prescribed.data.generator, prescribed.data.fit_on)
        for prescribed in map(
            prescription.builtin_repository().get,
            prescription.builtin_repository().names(),
        )
        if prescribed.data.fit_on
    }
    assert named and named <= set(FITTABLE)


def test_a_disk_hit_loads_no_seed(monkeypatch):
    _fitted("fitted-table", "retail-orders")

    def refuse(name):
        raise AssertionError(f"loaded the seed set {name!r}")

    monkeypatch.setattr(models, "load_seed", refuse)
    generator, uses = _fitted("fitted-table", "retail-orders")
    assert uses == ["disk"] and generator.is_fitted


def test_restored_arrays_are_read_only():
    _fitted("lda-text", "text-corpus")
    generator, uses = _fitted("lda-text", "text-corpus")
    assert uses == ["disk"]
    with pytest.raises(ValueError, match="read-only"):
        generator.model.phi[0, 0] = 1.0


def test_a_run_says_disk_and_its_output_is_unchanged():
    from repro import api

    cold = api.run("database-aggregate-join", volume=80, engines=["mapreduce"])
    models.PROCESS_MODELS.clear()
    warm = api.run("database-aggregate-join", volume=80, engines=["mapreduce"])
    caches = [
        report.results[0].extra["model"]["cache"] for report in (cold, warm)
    ]
    assert caches == ["fitted", "disk"]
    # MapReduce's throughput and cost are modelled, not timed: equal
    # data, equal means ("duration" is wall time).
    means = [
        {name: report.results[0].mean(name) for name in ("throughput", "cost")}
        for report in (cold, warm)
    ]
    assert means[0] == means[1]
    detail = [report.step("data-generation").detail for report in (cold, warm)]
    assert detail[0]["bytes"] == detail[1]["bytes"]


class TestRobustness:
    def _only_file(self, home: Path) -> Path:
        _fitted("fitted-table", "retail-orders")
        (path,) = _model_files(home)
        return path

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],  # truncated
            lambda data: b"",
            lambda data: b"\x00" * len(data),  # foreign
            lambda data: data[:-1] + bytes([data[-1] ^ 1]),  # edited
        ],
        ids=["truncated", "empty", "foreign", "edited"],
    )
    def test_a_damaged_file_is_refitted(self, empty_cache_home, damage):
        path = self._only_file(empty_cache_home)
        path.write_bytes(damage(path.read_bytes()))
        generator, uses = _fitted("fitted-table", "retail-orders")
        assert uses == ["fitted"] and generator.is_fitted
        # ... and the refit put a whole file back.
        assert _fitted("fitted-table", "retail-orders")[1] == ["disk"]

    def test_a_checked_file_that_does_not_decode_is_refitted(self, empty_cache_home):
        path = self._only_file(empty_cache_home)
        _filecache.store(str(path), MODEL_FORMAT, b'{"address": 1}\nnot an npz')
        assert _fitted("fitted-table", "retail-orders")[1] == ["fitted"]

    def test_another_addresss_model_under_this_name_is_refitted(
        self, empty_cache_home
    ):
        _fitted("lda-text", "text-corpus")
        table = self._only_file_of("fitted-table", empty_cache_home)
        (lda,) = set(_model_files(empty_cache_home)) - {table}
        table.write_bytes(lda.read_bytes())
        assert _fitted("fitted-table", "retail-orders")[1] == ["fitted"]

    def _only_file_of(self, name: str, home: Path) -> Path:
        before = set(_model_files(home))
        _fitted(name, SOURCE_OF[registry.generators.create(name).data_type])
        (path,) = set(_model_files(home)) - before
        return path

    def test_nothing_is_unpickled(self, empty_cache_home):
        path = self._only_file(empty_cache_home)
        payload = _filecache.load(str(path), MODEL_FORMAT)
        text, _, _ = payload.partition(b"\n")
        npz = io.BytesIO()
        np.savez(npz, quantile_0=np.array([_Unpickled()], dtype=object))
        _filecache.store(str(path), MODEL_FORMAT, text + b"\n" + npz.getvalue())
        assert _fitted("fitted-table", "retail-orders")[1] == ["fitted"]
        assert UNPICKLED == []

    def test_an_unwritable_home_keeps_models_in_memory(self, tmp_path, monkeypatch):
        home = tmp_path / "not-a-directory"
        home.write_text("a file where the cache would be")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        cache = ModelCache()
        assert _fitted("fitted-table", "retail-orders", cache)[1] == ["fitted"]
        assert _fitted("fitted-table", "retail-orders", cache)[1] == ["hit"]
        assert _fitted("fitted-table", "retail-orders")[1] == ["fitted"]

    def test_a_state_json_cannot_hold_stays_in_memory(self, empty_cache_home):
        generator = registry.generators.create("pa-graph")
        generator.fitted_state = lambda: {"edges_per_vertex": (3,)}
        ModelCache().fitted(generator, "social-graph")
        assert _model_files(empty_cache_home) == []

    def test_two_processes_fitting_one_address_both_succeed(self, empty_cache_home):
        program = textwrap.dedent(
            """
            import repro
            from repro.core import registry
            from repro.datagen.models import ModelCache

            cache = ModelCache()
            with cache.recording() as uses:
                generator = cache.fitted(
                    registry.generators.create("lda-text"), "text-corpus"
                )
            print(uses[0].cache, len(generator.generate(20).records))
            """
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        children = [
            subprocess.Popen(
                [sys.executable, "-c", program], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outputs = [child.communicate(timeout=120) for child in children]
        assert [child.returncode for child in children] == [0, 0], outputs
        assert all(out.split()[1] == "20" for out, _ in outputs)
        files = _model_files(empty_cache_home)
        assert len(files) == 1 and files[0].suffix == ".model"
        assert _fitted("lda-text", "text-corpus")[1] == ["disk"]


UNPICKLED: list[str] = []


def _record_unpickling() -> str:
    UNPICKLED.append("unpickled")
    return "unpickled"


class _Unpickled:
    def __reduce__(self):
        return (_record_unpickling, ())


class TestTheAddress:
    """Editing the code a model came from is a miss, with no version to bump."""

    GENERATOR = '''
from repro.datagen.base import DataGenerator, DataType


class Doubling(DataGenerator):
    data_type = DataType.TEXT
    veracity_aware = True

    def fit(self, real_data):
        self.count = 2 * real_data.num_records
        self._fitted = True
        return self

    def fitted_state(self):
        return {"count": self.count}

    def restore_fitted(self, state):
        self.count = state["count"]
        self._fitted = True

    def iter_partition(self, volume, partition, num_partitions):
        yield from [str(self.count)] * self.partition_volume(
            volume, partition, num_partitions
        )
'''
    LOADER = '''
from repro.datagen.base import DataSet, DataType


def three_documents():
    return DataSet("three", DataType.TEXT, ["a b", "c", "d e f"])
'''

    @pytest.fixture
    def modules(self, tmp_path, monkeypatch):
        """A generator module and a seed loader module, importable."""
        (tmp_path / "doubling_generator.py").write_text(self.GENERATOR)
        (tmp_path / "three_documents.py").write_text(self.LOADER)
        monkeypatch.syspath_prepend(str(tmp_path))
        for name in ("doubling_generator", "three_documents"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setitem(
            prescription.SEED_SOURCES, "three", "three_documents:three_documents"
        )
        from doubling_generator import Doubling

        return tmp_path, Doubling

    def _use(self, kind) -> list[str]:
        cache = ModelCache()
        with cache.recording() as uses:
            generator = cache.fitted(kind(), "three")
        assert generator.generate(2).records == ["6", "6"]
        return [use.cache for use in uses]

    @pytest.mark.parametrize("edited", ["doubling_generator.py", "three_documents.py"])
    def test_an_edited_module_is_a_miss(self, modules, edited):
        directory, kind = modules
        assert [self._use(kind), self._use(kind)] == [["fitted"], ["disk"]]
        with (directory / edited).open("a") as handle:
            handle.write("# edited\n")
        assert [self._use(kind), self._use(kind)] == [["fitted"], ["disk"]]

    def test_a_loader_defined_in_a_function_stays_in_memory(
        self, modules, monkeypatch, empty_cache_home
    ):
        from three_documents import three_documents

        _, kind = modules
        monkeypatch.setitem(
            prescription.SEED_SOURCES, "three", lambda: three_documents()
        )
        assert [self._use(kind), self._use(kind)] == [["fitted"], ["fitted"]]
        assert _model_files(empty_cache_home) == []

    def test_a_fit_without_its_own_state_stays_in_memory(self, modules):
        _, kind = modules

        class Tripling(kind):
            def fit(self, real_data):
                self.count = 3 * real_data.num_records
                self._fitted = True
                return self

        Tripling.__qualname__ = "Tripling"  # as if defined at module level
        for _ in range(2):
            cache = ModelCache()
            with cache.recording() as uses:
                cache.fitted(Tripling(), "three")
            assert [use.cache for use in uses] == ["fitted"]
