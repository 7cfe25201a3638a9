"""Tests for the zero-copy dataset handoff layer (``datagen/handoff.py``).

Covers the shared chunk-stream format (byte-compatible with the cache's
disk spills), shared-memory and file-backed re-streaming sources, handle
round-trips, export lifetime, and partitions generated on a pool being
bit-identical to the serial partition loop.
"""

from __future__ import annotations

import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.errors import GenerationError
from repro.datagen.base import DataSet, DataType
from repro.datagen.cache import DatasetCache
from repro.datagen.handoff import (
    DatasetHandle,
    SharedMemoryStreamSource,
    export_dataset,
    fingerprint_handle,
    iter_chunks,
    read_header,
    serialize_dataset,
    write_stream,
)
from repro.datagen.text import RandomTextGenerator


def _dataset(records=None) -> DataSet:
    return DataSet(
        name="handoff-test",
        data_type=DataType.TEXT,
        records=records if records is not None else [f"doc {i}" for i in range(10)],
        metadata={"generator": "test", "seed": 7},
    )


KEY = ("random-text", 0, 100, 1, None)


class TestChunkStreamFormat:
    def test_header_then_chunks_roundtrip(self):
        dataset = _dataset()
        buffer = io.BytesIO()
        write_stream(buffer, dataset, chunk_records=3)
        buffer.seek(0)
        header = read_header(buffer)
        assert header["name"] == "handoff-test"
        assert header["data_type"] == "TEXT"
        assert header["num_records"] == 10
        assert header["metadata"] == {"generator": "test", "seed": 7}
        chunks = list(iter_chunks(buffer))
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
        assert [r for chunk in chunks for r in chunk] == dataset.records

    def test_spill_files_share_the_format(self, tmp_path):
        """A cache spill file is readable with this module's readers."""
        cache = DatasetCache(
            max_entries=4, max_resident_bytes=1, spill_dir=tmp_path
        )
        cache.put(KEY, _dataset())
        spill_files = list(tmp_path.glob("spill-*.pkl"))
        assert len(spill_files) == 1
        with spill_files[0].open("rb") as handle:
            header = read_header(handle)
            records = [r for chunk in iter_chunks(handle) for r in chunk]
        assert header["num_records"] == 10
        assert records == _dataset().records


class TestSharedMemoryExport:
    def test_shm_handle_roundtrip(self):
        dataset = _dataset()
        export = export_dataset(KEY, DatasetCache.fingerprint(KEY), dataset)
        try:
            handle = export.handle
            assert handle.kind == "shm"
            assert handle.nbytes == len(serialize_dataset(dataset))
            restored = handle.open().materialize()
            assert restored.records == dataset.records
            assert restored.metadata == dataset.metadata
            assert restored.data_type is DataType.TEXT
        finally:
            export.close()

    def test_shm_source_rechunks_lazily(self):
        dataset = _dataset(records=[f"r{i}" for i in range(25)])
        export = export_dataset(KEY, DatasetCache.fingerprint(KEY), dataset)
        try:
            source = export.handle.open()
            assert isinstance(source, SharedMemoryStreamSource)
            batches = list(source.batches(chunk_size=10))
            assert [len(b) for b in batches] == [10, 10, 5]
            assert [b.offset for b in batches] == [0, 10, 20]
            assert [r for b in batches for r in b] == dataset.records
            # A second pass re-attaches and reads the same records.
            assert source.materialize().records == dataset.records
        finally:
            export.close()

    def test_close_is_idempotent_and_releases_segment(self):
        export = export_dataset(KEY, DatasetCache.fingerprint(KEY), _dataset())
        export.close()
        export.close()
        with pytest.raises(Exception):
            export.handle.open().materialize()


class TestFileExport:
    def test_no_segment_ships_nothing(self, monkeypatch):
        """A data set ships through shared memory or not at all: when
        the segment cannot be created the worker regenerates."""
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        export = export_dataset(KEY, DatasetCache.fingerprint(KEY), _dataset())
        assert export.handle == fingerprint_handle(
            KEY, DatasetCache.fingerprint(KEY)
        )
        assert export.nbytes == 0
        export.close()

    def test_spilled_cache_entry_ships_as_existing_file(self, tmp_path):
        """Exporting a spilled entry writes zero new bytes."""
        cache = DatasetCache(
            max_entries=4, max_resident_bytes=1, spill_dir=tmp_path
        )
        cache.put(KEY, _dataset())
        source = cache.export_source(KEY)
        export = export_dataset(KEY, DatasetCache.fingerprint(KEY), source)
        handle = export.handle
        assert handle.kind == "file"
        assert handle.path == str(source.path)
        assert handle.open().materialize().records == _dataset().records
        export.close()
        # Referenced, not owned: the spill file is still the cache's.
        assert source.path.exists()


class TestHandles:
    def test_fingerprint_handle_carries_no_bytes(self):
        handle = fingerprint_handle(KEY, DatasetCache.fingerprint(KEY))
        assert handle.kind == "fingerprint"
        assert handle.nbytes == 0
        with pytest.raises(GenerationError):
            handle.open()

    def test_handles_are_picklable_and_small(self):
        import pickle

        export = export_dataset(KEY, DatasetCache.fingerprint(KEY), _dataset())
        try:
            payload = pickle.dumps(export.handle)
            assert len(payload) < 600
            assert isinstance(pickle.loads(payload), DatasetHandle)
        finally:
            export.close()

    def test_cache_fingerprint_is_content_addressed(self):
        assert DatasetCache.fingerprint(KEY) == DatasetCache.fingerprint(
            ("random-text", 0, 100, 1, None)
        )
        assert DatasetCache.fingerprint(KEY) != DatasetCache.fingerprint(
            ("random-text", 0, 200, 1, None)
        )
        assert len(DatasetCache.fingerprint(KEY)) == 64


class TestParallelGeneration:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_executor_fanout_is_bit_identical(self, backend):
        """The seam a controller fans out over: partitions are seeded
        independently, so generating them on any pool and merging in
        partition order is ``generate_parallel``."""
        generator = RandomTextGenerator(seed=11)
        pool = (
            ThreadPoolExecutor(max_workers=2)
            if backend == "thread"
            else ProcessPoolExecutor(
                max_workers=2, mp_context=multiprocessing.get_context("spawn")
            )
        )
        with pool:
            partitions = list(
                pool.map(generator.generate_partition, [60] * 4, range(4), [4] * 4)
            )
        serial = RandomTextGenerator(seed=11).generate_parallel(60, 4)
        assert [r for records in partitions for r in records] == serial.records
        assert serial.num_records == 60
