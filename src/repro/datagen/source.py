"""Dataset sources: the chunk-iterable abstraction of the data path.

The paper's volume axis (Section 2.1) and its fully-controllable
velocity requirement (Section 5.1) presume data sets that scale past
what one machine holds, so the framework's data path moves *sources* —
objects that yield :class:`~repro.datagen.base.RecordBatch` chunks
lazily — rather than fully materialized record lists.

:class:`DatasetSource` is a structural protocol; anything with a name,
a data type, metadata, a known record count, ``batches()`` and
``materialize()`` qualifies.  Two concrete shapes exist:

* :class:`~repro.datagen.base.DataSet` — the materialized source: its
  batches re-slice an in-memory list, so every historical call site
  keeps working unchanged;
* :class:`GeneratorSource` — the streaming source: batches come straight
  out of a :meth:`~repro.datagen.base.DataGenerator.iter_batches`
  stream, so peak memory is one chunk regardless of volume.

Generation is deterministic (same seed ⇒ same records), so the two
shapes are interchangeable evidence-wise: materializing a streaming
source yields bit-identical records to the equivalent ``generate()``
call, and workloads produce identical results either way.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any, Protocol, runtime_checkable

from repro.core.errors import GenerationError
from repro.datagen.base import DataGenerator, DataSet, DataType, RecordBatch


@runtime_checkable
class DatasetSource(Protocol):
    """What every layer of the data path accepts: a chunk-iterable data set.

    ``num_records`` is known up front (generators are volume-driven), so
    consumers can size output structures and report records-in without
    consuming the stream.
    """

    name: str
    metadata: dict[str, Any]

    @property
    def data_type(self) -> DataType: ...  # noqa: E704 - protocol stub

    @property
    def num_records(self) -> int: ...  # noqa: E704 - protocol stub

    def batches(self, chunk_size: int | None = None) -> Iterator[RecordBatch]:
        """Yield the records as successive :class:`RecordBatch` chunks."""
        ...

    def materialize(self) -> DataSet:
        """The fully-materialized form (bit-identical to the stream)."""
        ...


class GeneratorSource:
    """A lazy source over a fitted generator: records exist only per-chunk.

    ``batches()`` can be consumed any number of times — generation is
    deterministic, so every pass yields the same records.  ``iter_records``
    flattens the stream for record-at-a-time consumers.  ``materialize()``
    builds (and caches) the full :class:`DataSet` for call sites that
    genuinely need random access; the result is bit-identical to
    ``generator.generate(volume)`` (or ``generate_parallel`` for multiple
    partitions) at the same seed.
    """

    def __init__(
        self,
        generator: DataGenerator,
        volume: int,
        chunk_size: int | None = None,
        num_partitions: int = 1,
        name: str | None = None,
    ) -> None:
        if volume < 0:
            raise GenerationError(f"volume must be non-negative, got {volume}")
        if chunk_size is not None and chunk_size <= 0:
            raise GenerationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        if num_partitions <= 0:
            raise GenerationError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        generator._require_fitted()
        self.generator = generator
        self.volume = volume
        self.chunk_size = chunk_size
        self.num_partitions = num_partitions
        self.name = name or f"{generator.name.lower()}-stream"
        # An empty _wrap carries the generator's type-specific metadata
        # (a table's schema, an image set's classes) without generating
        # anything, so schema-driven consumers (e.g. the DBMS loader)
        # work off the stream alone.
        self.metadata: dict[str, Any] = dict(
            generator._wrap([], self.name).metadata
        )
        self.metadata["streamed"] = True
        self._materialized: DataSet | None = None

    @property
    def data_type(self) -> DataType:
        return self.generator.data_type

    @property
    def num_records(self) -> int:
        return self.volume

    def __len__(self) -> int:
        return self.volume

    def batches(self, chunk_size: int | None = None) -> Iterator[RecordBatch]:
        """Stream the generation as chunks (re-iterable, deterministic)."""
        if self._materialized is not None:
            # Already paid for the full list — re-slice it instead of
            # regenerating.
            yield from self._materialized.batches(
                chunk_size if chunk_size is not None else self.chunk_size
            )
            return
        yield from self.generator.iter_batches(
            self.volume,
            chunk_size if chunk_size is not None else self.chunk_size,
            self.num_partitions,
        )

    def iter_records(self) -> Iterator[Any]:
        """The flattened record stream (one record in memory at a time
        for streaming generators)."""
        for batch in self.batches():
            yield from batch

    def __iter__(self) -> Iterator[Any]:
        return self.iter_records()

    def materialize(self) -> DataSet:
        """Concatenate the stream into a full DataSet (cached).

        The result is exactly what ``generate()`` / ``generate_parallel()``
        would have produced — including type-specific metadata such as a
        table's schema, which generators attach in ``_wrap``.
        """
        if self._materialized is None:
            records: list[Any] = []
            for batch in self.batches():
                records.extend(batch.records)
            dataset = self.generator._wrap(records, self.name)
            dataset.metadata.setdefault("streamed", True)
            self._materialized = dataset
        return self._materialized

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeneratorSource(generator={self.generator.name}, "
            f"volume={self.volume}, chunk_size={self.chunk_size}, "
            f"partitions={self.num_partitions})"
        )


def ensure_dataset(data: DataSet | DatasetSource) -> DataSet:
    """The materialized form of ``data`` (identity for a DataSet)."""
    if isinstance(data, DataSet):
        return data
    if isinstance(data, DatasetSource):
        return data.materialize()
    raise GenerationError(
        f"expected a DataSet or DatasetSource, got {type(data).__name__}"
    )
