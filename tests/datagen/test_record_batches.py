"""Tests for the chunked data path: RecordBatch streaming and sources.

The core guarantee under test: generation is deterministic, so streaming
a generator through ``iter_batches`` at *any* chunk size yields records
bit-identical to one materializing ``generate`` call at the same seed —
chunking is re-slicing, never re-sampling.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro  # noqa: F401 — fills the registries
from repro.core import registry
from repro.core.errors import GenerationError
from repro.datagen.base import (
    DEFAULT_CHUNK_SIZE,
    DataSet,
    DataType,
    RecordBatch,
)
from repro.datagen.models import PROCESS_MODELS
from repro.datagen.source import (
    DatasetSource,
    GeneratorSource,
    ensure_dataset,
)
from repro.observability import Tracer

from tests._datasets import as_dataset

#: Seed data for the veracity-aware generators (everything else is
#: ready to generate straight from the registry).
FIT_SOURCES = {
    "lda-text": "text-corpus",
    "unigram-text": "text-corpus",
    "fitted-table": "retail-orders",
}

VOLUME = 30


def _fitted(name: str):
    # Through the model cache, like every run: a model an earlier test or
    # process fitted is read from disk (byte for byte a fresh fit's,
    # tests/datagen/test_model_disk.py).
    return PROCESS_MODELS.fitted(
        registry.generators.create(name), FIT_SOURCES.get(name)
    )


def all_generator_names() -> list[str]:
    return sorted(registry.generators.names())


def _same(a, b) -> bool:
    """Structural equality that tolerates numpy arrays inside records."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


class TestStreamedMaterializedParity:
    """Every registered generator, every chunking, identical records."""

    @pytest.mark.parametrize("name", all_generator_names())
    @pytest.mark.parametrize("chunk_size", [1, 7, VOLUME])
    def test_concatenated_batches_equal_generate(self, name, chunk_size):
        materialized = _fitted(name).generate(VOLUME)
        streamed = [
            record
            for batch in _fitted(name).iter_batches(VOLUME, chunk_size)
            for record in batch
        ]
        assert _same(streamed, materialized.records)

    @pytest.mark.parametrize("name", all_generator_names())
    def test_batch_invariants(self, name):
        # Volume is generator-native units (a graph's volume counts
        # vertices, its records are edges), so the expected record count
        # comes from the materialized equivalent.
        expected = len(_fitted(name).generate(VOLUME).records)
        batches = list(_fitted(name).iter_batches(VOLUME, 7))
        assert sum(len(batch) for batch in batches) == expected
        offset = 0
        for index, batch in enumerate(batches):
            assert isinstance(batch, RecordBatch)
            assert batch.index == index
            assert batch.offset == offset
            assert len(batch) <= 7
            offset += len(batch)
        # Every batch except the last is full.
        assert all(len(batch) == 7 for batch in batches[:-1])

    @pytest.mark.parametrize("name", all_generator_names())
    def test_multi_partition_stream_matches_generate_parallel(self, name):
        materialized = _fitted(name).generate_parallel(VOLUME, 3)
        streamed = [
            record
            for batch in _fitted(name).iter_batches(VOLUME, 7, num_partitions=3)
            for record in batch
        ]
        assert _same(streamed, materialized.records)


class TestIterBatchesValidation:
    def test_rejects_non_positive_chunk_size(self):
        generator = _fitted("random-text")
        with pytest.raises(GenerationError):
            list(generator.iter_batches(10, 0))

    def test_rejects_negative_volume(self):
        generator = _fitted("random-text")
        with pytest.raises(GenerationError):
            list(generator.iter_batches(-1, 5))

    def test_unfitted_generator_rejected(self):
        generator = registry.generators.create("lda-text")
        with pytest.raises(GenerationError):
            list(generator.iter_batches(10, 5))

    def test_zero_volume_yields_no_batches(self):
        assert list(_fitted("random-text").iter_batches(0, 5)) == []


class TestDataSetBatches:
    def test_reslices_records(self):
        dataset = as_dataset([f"r{i}" for i in range(10)], DataType.TEXT)
        batches = list(dataset.batches(4))
        assert [batch.records for batch in batches] == [
            ["r0", "r1", "r2", "r3"],
            ["r4", "r5", "r6", "r7"],
            ["r8", "r9"],
        ]
        assert [batch.offset for batch in batches] == [0, 4, 8]

    def test_default_chunk_size(self):
        dataset = as_dataset(["x"] * (DEFAULT_CHUNK_SIZE + 1), DataType.TEXT)
        assert [len(b) for b in dataset.batches()] == [DEFAULT_CHUNK_SIZE, 1]

    def test_dataset_satisfies_source_protocol(self):
        dataset = as_dataset(["x"], DataType.TEXT)
        assert isinstance(dataset, DatasetSource)
        assert dataset.materialize() is dataset


class TestGeneratorSource:
    def test_materialize_equals_generate(self):
        source = GeneratorSource(_fitted("random-text"), VOLUME, chunk_size=7)
        assert source.materialize().records == (
            _fitted("random-text").generate(VOLUME).records
        )

    def test_batches_are_reiterable(self):
        source = GeneratorSource(_fitted("kv-records"), VOLUME, chunk_size=7)
        first = [r for b in source.batches() for r in b]
        second = [r for b in source.batches() for r in b]
        assert first == second == list(source)

    def test_metadata_carries_schema_without_generating(self):
        source = GeneratorSource(_fitted("mixture-table"), VOLUME)
        assert "schema" in source.metadata
        assert source.metadata["streamed"] is True
        assert source._materialized is None

    def test_num_records_known_up_front(self):
        source = GeneratorSource(_fitted("random-text"), VOLUME)
        assert source.num_records == VOLUME
        assert len(source) == VOLUME

    def test_ensure_dataset_materializes(self):
        source = GeneratorSource(_fitted("random-text"), VOLUME)
        dataset = ensure_dataset(source)
        assert isinstance(dataset, DataSet)
        assert dataset.num_records == VOLUME
        # Identity for an already-materialized data set.
        assert ensure_dataset(dataset) is dataset

    def test_rejects_bad_arguments(self):
        generator = _fitted("random-text")
        with pytest.raises(GenerationError):
            GeneratorSource(generator, -1)
        with pytest.raises(GenerationError):
            GeneratorSource(generator, 10, chunk_size=0)
        with pytest.raises(GenerationError):
            GeneratorSource(generator, 10, num_partitions=0)

    def test_unfitted_generator_rejected_at_construction(self):
        with pytest.raises(GenerationError):
            GeneratorSource(registry.generators.create("lda-text"), 10)


class TestStreamingTraceCounters:
    def test_batches_and_peak_bytes_recorded(self):
        tracer = Tracer()
        generator = _fitted("random-text")
        with tracer.activate():
            with tracer.span("generation") as span:
                batches = list(generator.iter_batches(VOLUME, 7))
        expected_peak = max(batch.estimated_bytes() for batch in batches)
        assert span.counters["batches"] == len(batches)
        assert span.counters["peak_batch_bytes"] == expected_peak

    def test_an_untraced_stream_sizes_no_batch(self, monkeypatch):
        """The gauge's argument is not evaluated for a tracer that is off."""
        from repro.datagen import base

        sized: list[object] = []
        record_size = base._record_size
        monkeypatch.setattr(
            base, "_record_size",
            lambda record: (sized.append(record), record_size(record))[1],
        )
        generator = _fitted("random-text")
        batches = list(generator.iter_batches(VOLUME, 7))
        assert sized == []
        assert sum(len(batch) for batch in batches) == VOLUME
        with Tracer().activate():
            list(generator.iter_batches(VOLUME, 7))
        assert len(sized) == VOLUME
