"""Zero-copy dataset handoff for process fan-out (BDGS-style scaling).

Shipping a generated data set to a worker process by pickling it into
every task payload is the single largest overhead of the process
executor backend: the same records cross the pool boundary once per
task.  This module makes the bytes cross **at most once** — or never:

* one **chunk-stream format** (a pickled header followed by pickled
  record chunks until EOF) shared with the dataset cache's disk-spill
  files, so a spilled cache entry *is already* in shipping shape;
* :class:`SharedMemoryStreamSource` / :class:`FileStreamSource` —
  :class:`~repro.datagen.source.DatasetSource` implementations that
  re-stream a chunk stream from a ``multiprocessing.shared_memory``
  segment (read in place, no per-worker copy of the serialized bytes)
  or from a disk file;
* :class:`DatasetHandle` — the tiny picklable descriptor that travels
  in a task instead of the records: a content fingerprint plus where
  (if anywhere) the serialized bytes live.  A ``fingerprint``-kind
  handle ships no bytes at all: generation is deterministic, so the
  worker regenerates the identical records from the seed and caches
  them locally (see :meth:`repro.datagen.cache.DatasetCache.make_key`).

The parent exports a data set once per pool (:func:`export_dataset`),
workers open the handle (:func:`open_handle`) and either re-stream the
shared bytes or regenerate — never receiving the records through the
task pipe.
"""

from __future__ import annotations

import io
import pickle
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from repro.core.errors import GenerationError
from repro.datagen.base import (
    DEFAULT_CHUNK_SIZE,
    DataSet,
    DataType,
    RecordBatch,
)


def _shared_memory() -> Any:
    """``multiprocessing.shared_memory``, or None on a platform without it.

    Imported at first use: only the process backend's handoff needs it.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platforms without shm
        return None
    return shared_memory


#: Records per pickled chunk in a serialized stream (and in the cache's
#: spill files, which use this module's writer).
STREAM_CHUNK_RECORDS = DEFAULT_CHUNK_SIZE

#: The ways a worker can obtain a dataset from a handle.
HANDLE_KINDS = ("shm", "file", "fingerprint")


# ---------------------------------------------------------------------------
# The chunk-stream format
# ---------------------------------------------------------------------------


def write_stream(
    handle: BinaryIO,
    dataset: DataSet,
    chunk_records: int = STREAM_CHUNK_RECORDS,
) -> None:
    """Serialize ``dataset`` as header + pickled record chunks.

    The reader never needs the full record list in memory: chunks are
    unpickled one at a time until EOF.  This is the dataset cache's
    disk-spill format — cache spills and pool exports are byte-compatible.
    """
    header = {
        "name": dataset.name,
        "data_type": dataset.data_type.name,
        "num_records": dataset.num_records,
        "metadata": dict(dataset.metadata),
    }
    pickle.dump(header, handle)
    records = dataset.records
    for start in range(0, len(records), chunk_records):
        pickle.dump(records[start : start + chunk_records], handle)


def read_header(handle: BinaryIO) -> dict[str, Any]:
    """The stream's header dict (leaves the handle at the first chunk)."""
    return pickle.load(handle)


def iter_chunks(handle: BinaryIO) -> Iterator[list[Any]]:
    """Yield record chunks from a stream positioned past its header."""
    while True:
        try:
            yield pickle.load(handle)
        except EOFError:
            return


def serialize_dataset(dataset: DataSet) -> bytes:
    """The full chunk stream as one bytes object (for shm export)."""
    buffer = io.BytesIO()
    write_stream(buffer, dataset)
    return buffer.getvalue()


class _MemoryviewReader(io.RawIOBase):
    """A read-only raw IO over a memoryview — no copy of the buffer.

    ``pickle.Unpickler`` reads through this directly, so unpickling a
    shared-memory chunk stream touches the segment in place; only the
    deserialized records themselves are allocated in the worker.
    """

    def __init__(self, view: memoryview) -> None:
        self._view = view
        self._pos = 0

    def readable(self) -> bool:  # pragma: no cover - io protocol
        return True

    def readinto(self, buffer: bytearray) -> int:
        count = min(len(buffer), len(self._view) - self._pos)
        buffer[:count] = self._view[self._pos : self._pos + count]
        self._pos += count
        return count


# ---------------------------------------------------------------------------
# Stream-backed dataset sources
# ---------------------------------------------------------------------------


class StreamSource:
    """Base for sources that re-stream a serialized chunk stream.

    Satisfies :class:`~repro.datagen.source.DatasetSource`: batches are
    re-chunked lazily from the stored chunks, so peak memory is one
    chunk regardless of the stream's total size.  Subclasses supply
    :meth:`_open_stream`.
    """

    def __init__(
        self,
        name: str,
        data_type: DataType,
        metadata: dict[str, Any],
        num_records: int,
    ) -> None:
        self.name = name
        self._data_type = data_type
        self.metadata = dict(metadata)
        self._num_records = num_records

    # -- subclass hook --------------------------------------------------

    def _open_stream(self) -> BinaryIO:
        """A fresh binary stream positioned at the header."""
        raise NotImplementedError

    # -- DatasetSource protocol -----------------------------------------

    @property
    def data_type(self) -> DataType:
        return self._data_type

    @property
    def num_records(self) -> int:
        return self._num_records

    def __len__(self) -> int:
        return self._num_records

    def _iter_chunks(self) -> Iterator[list[Any]]:
        with self._open_stream() as handle:
            read_header(handle)
            yield from iter_chunks(handle)

    def batches(self, chunk_size: int | None = None) -> Iterator[RecordBatch]:
        """Re-chunk the stored stream to the requested chunk size."""
        chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        if chunk_size <= 0:
            raise GenerationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        buffer: list[Any] = []
        index = 0
        offset = 0
        for chunk in self._iter_chunks():
            buffer.extend(chunk)
            while len(buffer) >= chunk_size:
                records, buffer = buffer[:chunk_size], buffer[chunk_size:]
                yield RecordBatch(
                    records=records, data_type=self._data_type,
                    index=index, offset=offset,
                )
                offset += len(records)
                index += 1
        if buffer:
            yield RecordBatch(
                records=buffer, data_type=self._data_type,
                index=index, offset=offset,
            )

    def __iter__(self) -> Iterator[Any]:
        for batch in self.batches():
            yield from batch

    def materialize(self) -> DataSet:
        """Load the full data set back into memory."""
        records: list[Any] = []
        for chunk in self._iter_chunks():
            records.extend(chunk)
        return DataSet(
            name=self.name,
            data_type=self._data_type,
            records=records,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"records={self._num_records})"
        )


class FileStreamSource(StreamSource):
    """A dataset source re-streaming a chunk-stream file from disk."""

    def __init__(
        self,
        path: Path,
        name: str,
        data_type: DataType,
        metadata: dict[str, Any],
        num_records: int,
    ) -> None:
        super().__init__(name, data_type, metadata, num_records)
        self.path = Path(path)

    def _open_stream(self) -> BinaryIO:
        return self.path.open("rb")


class SharedMemoryStreamSource(StreamSource):
    """A dataset source reading a chunk stream out of a shm segment.

    Each stream pass attaches to the segment by name, unpickles in
    place through a :class:`_MemoryviewReader` (the serialized bytes
    are never copied into the worker), and detaches when the pass
    finishes — the parent owns the segment's lifetime.
    """

    def __init__(
        self,
        shm_name: str,
        nbytes: int,
        name: str,
        data_type: DataType,
        metadata: dict[str, Any],
        num_records: int,
    ) -> None:
        super().__init__(name, data_type, metadata, num_records)
        self.shm_name = shm_name
        self.nbytes = nbytes

    def _iter_chunks(self) -> Iterator[list[Any]]:
        shared_memory = _shared_memory()
        if shared_memory is None:  # pragma: no cover - platform gap
            raise GenerationError("shared memory is unavailable")
        segment = shared_memory.SharedMemory(name=self.shm_name)
        try:
            view = segment.buf[: self.nbytes]
            raw = _MemoryviewReader(view)
            reader = io.BufferedReader(raw)
            try:
                read_header(reader)
                yield from iter_chunks(reader)
            finally:
                # Every exported view must be released before close(),
                # or the segment's mmap would refuse to detach.
                reader.detach()
                raw._view = None
                view.release()
        finally:
            segment.close()

    def _open_stream(self) -> BinaryIO:  # pragma: no cover - unused hook
        raise NotImplementedError("SharedMemoryStreamSource streams via _iter_chunks")


# ---------------------------------------------------------------------------
# Handles and exports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetHandle:
    """The tiny picklable stand-in for a data set in a task descriptor.

    ``kind`` says how a worker obtains the records:

    * ``"shm"`` — re-stream from the named shared-memory segment;
    * ``"file"`` — re-stream from ``path`` (a cache spill file);
    * ``"fingerprint"`` — nothing shipped: regenerate deterministically
      from the cache key and keep the result in the worker's own cache.
    """

    key: tuple
    fingerprint: str
    kind: str
    shm_name: str | None = None
    path: str | None = None
    nbytes: int = 0
    name: str = ""
    data_type_name: str = DataType.TEXT.name
    metadata: tuple = ()
    num_records: int = 0

    def open(self) -> StreamSource:
        """The worker-side source for a byte-carrying handle."""
        data_type = DataType[self.data_type_name]
        metadata = dict(self.metadata)
        if self.kind == "shm":
            return SharedMemoryStreamSource(
                shm_name=self.shm_name,
                nbytes=self.nbytes,
                name=self.name,
                data_type=data_type,
                metadata=metadata,
                num_records=self.num_records,
            )
        if self.kind == "file":
            return FileStreamSource(
                path=Path(self.path),
                name=self.name,
                data_type=data_type,
                metadata=metadata,
                num_records=self.num_records,
            )
        raise GenerationError(
            f"handle kind {self.kind!r} carries no bytes to open"
        )


class ExportedDataset:
    """Parent-side owner of one exported data set's shared bytes.

    Created once per (pool, dataset) and reused for every batch the
    pool serves; :meth:`close` releases the shared-memory segment.
    Cache spill files are referenced, not owned — the cache keeps
    managing their lifetime.
    """

    def __init__(self, handle: DatasetHandle, segment: Any = None) -> None:
        self.handle = handle
        self._segment = segment
        self._closed = False

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    def close(self) -> None:
        """Release the shared bytes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._segment is not None:
            self._segment.close()
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExportedDataset(kind={self.handle.kind}, "
            f"nbytes={self.handle.nbytes})"
        )


def fingerprint_handle(key: tuple, fingerprint: str) -> DatasetHandle:
    """A byte-free handle: the worker regenerates from the seed."""
    return DatasetHandle(key=key, fingerprint=fingerprint, kind="fingerprint")


def export_dataset(
    key: tuple, fingerprint: str, source: Any
) -> ExportedDataset:
    """Serialize a data set once into shared bytes and return its handle.

    ``source`` is a :class:`DataSet` (serialized into a shared-memory
    segment) or a :class:`FileStreamSource` (a cache spill file —
    already serialized on disk, shipped as a path without writing a
    single new byte).  When no segment can be created the handle is a
    ``fingerprint`` one: nothing ships and the worker regenerates.
    """
    if isinstance(source, FileStreamSource):
        return ExportedDataset(
            DatasetHandle(
                key=key,
                fingerprint=fingerprint,
                kind="file",
                path=str(source.path),
                nbytes=source.path.stat().st_size,
                name=source.name,
                data_type_name=source.data_type.name,
                metadata=tuple(sorted(source.metadata.items())),
                num_records=source.num_records,
            )
        )
    dataset: DataSet = source
    payload = serialize_dataset(dataset)
    shared_memory = _shared_memory()
    segment = None
    if shared_memory is not None:
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=len(payload)
            )
        except OSError:
            pass
    if segment is None:
        return ExportedDataset(fingerprint_handle(key, fingerprint))
    segment.buf[: len(payload)] = payload
    return ExportedDataset(
        DatasetHandle(
            key=key,
            fingerprint=fingerprint,
            kind="shm",
            shm_name=segment.name,
            nbytes=len(payload),
            name=dataset.name,
            data_type_name=dataset.data_type.name,
            metadata=tuple(sorted(dataset.metadata.items())),
            num_records=dataset.num_records,
        ),
        segment=segment,
    )
