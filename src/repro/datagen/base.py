"""Data set abstraction and the data-generator base class.

This module implements the skeleton of the data-generation process of the
paper (Figure 3): a generator may optionally *fit* a model on a real data
set (step 2, veracity), then *generate* synthetic data at a requested
volume (step 3, volume), possibly split into deterministic partitions so
that generation can be parallelised (step 3, velocity).  Format conversion
(step 4) lives in :mod:`repro.datagen.formats`.
"""

from __future__ import annotations

import enum
import sys
from abc import ABC
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.errors import GenerationError, ModelNotFittedError
from repro.observability import current_tracer

if TYPE_CHECKING:
    import numpy as np

#: Default records per batch on the chunked data path.  Chosen so a batch
#: of typical records stays in the megabyte range: small enough to bound
#: memory, large enough to amortise per-batch overhead.
DEFAULT_CHUNK_SIZE = 1024


class StructureClass(enum.Enum):
    """The paper's three structure classes of big data (Section 2.1)."""

    STRUCTURED = "structured"
    SEMI_STRUCTURED = "semi-structured"
    UNSTRUCTURED = "unstructured"


class DataType(enum.Enum):
    """Representative data sources called out in Section 2.1 of the paper."""

    TEXT = ("text", StructureClass.UNSTRUCTURED)
    TABLE = ("table", StructureClass.STRUCTURED)
    GRAPH = ("graph", StructureClass.UNSTRUCTURED)
    STREAM = ("stream", StructureClass.SEMI_STRUCTURED)
    WEB_LOG = ("web log", StructureClass.SEMI_STRUCTURED)
    REVIEW = ("review", StructureClass.SEMI_STRUCTURED)
    RESUME = ("resume", StructureClass.SEMI_STRUCTURED)
    KEY_VALUE = ("key-value", StructureClass.STRUCTURED)
    IMAGE = ("image", StructureClass.UNSTRUCTURED)

    def __init__(self, label: str, structure: StructureClass) -> None:
        self.label = label
        self.structure = structure


@dataclass
class RecordBatch:
    """A typed, sized slice of a record stream (the chunked-path unit).

    The data path moves ``RecordBatch`` objects, not whole record lists:
    a generator yields them one at a time, format converters transform
    them chunk by chunk, and engines ingest them incrementally — so peak
    memory is bounded by the batch size, not the data volume.

    ``index`` is the zero-based position of the batch in its stream and
    ``offset`` the global index of its first record, so consumers can
    reconstruct global record positions without counting.
    """

    records: list[Any]
    data_type: DataType
    index: int = 0
    offset: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def estimated_bytes(self) -> int:
        """A cheap, deterministic estimate of the batch's serialized size."""
        return sum(map(_record_size, self.records))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecordBatch(index={self.index}, offset={self.offset}, "
            f"records={len(self.records)}, type={self.data_type.label})"
        )


@dataclass
class DataSet:
    """An in-memory data set flowing through the benchmark framework.

    ``records`` is a list whose element type depends on ``data_type``:

    * TEXT — ``str`` documents,
    * TABLE — ``tuple`` rows (with a ``schema`` entry in ``metadata``),
    * GRAPH — ``(src, dst)`` edge tuples,
    * STREAM — :class:`repro.datagen.stream.StreamEvent`,
    * WEB_LOG / REVIEW — ``dict`` records,
    * KEY_VALUE — ``(key, fields_dict)`` pairs.
    """

    name: str
    data_type: DataType
    records: list[Any]
    metadata: dict[str, Any] = field(default_factory=dict)
    #: What :meth:`estimated_bytes` returns, when whoever built the
    #: records knows it without walking them (the size map of
    #: :mod:`repro.datagen.models`).  Read by the dataset cache, whose
    #: entries nobody changes; :meth:`estimated_bytes` itself always
    #: walks, and ``dataclasses.replace`` does not carry it over.
    known_bytes: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def structure(self) -> StructureClass:
        return self.data_type.structure

    def estimated_bytes(self) -> int:
        """A cheap, deterministic estimate of the serialized data volume."""
        return sum(map(_record_size, self.records))

    def head(self, count: int = 5) -> list[Any]:
        """The first ``count`` records, for inspection and reporting."""
        return self.records[:count]

    # ------------------------------------------------------------------
    # DatasetSource protocol — a DataSet is the materialized source, so
    # every call site that accepts a source keeps working with the
    # historical fully-materialized lists.
    # ------------------------------------------------------------------

    def batches(self, chunk_size: int | None = None) -> Iterator[RecordBatch]:
        """The records re-sliced as :class:`RecordBatch` chunks."""
        chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        if chunk_size <= 0:
            raise GenerationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        for index, offset in enumerate(range(0, len(self.records), chunk_size)):
            yield RecordBatch(
                records=self.records[offset : offset + chunk_size],
                data_type=self.data_type,
                index=index,
                offset=offset,
            )

    def materialize(self) -> "DataSet":
        """A DataSet is already materialized; returns itself."""
        return self

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataSet(name={self.name!r}, type={self.data_type.label}, "
            f"records={self.num_records})"
        )


#: Exact record type -> sizer, for record classes defined outside this
#: module; each adds itself when its module is imported (``StreamEvent``).
_EXACT_SIZERS: dict[type, Callable[[Any], int]] = {}


def _record_size(record: Any) -> int:
    """Estimate the serialized size of one record in bytes.

    Characters of text, 8 bytes per number, containers as the sum of
    their items, anything else as the length of its ``str()``.  The
    exact builtin types generators emit are recognised by one ``type()``
    comparison; subclasses and everything else take the ``isinstance``
    chain below, which is the definition.
    """
    kind = type(record)
    if kind is str:
        return len(record)
    if kind is int or kind is float:
        return 8
    if kind is tuple or kind is list:
        # Rows are flat: text and numbers are sized here, without a
        # call per field.
        total = 0
        for item in record:
            item_kind = type(item)
            if item_kind is str:
                total += len(item)
            elif item_kind is int or item_kind is float:
                total += 8
            else:
                total += _record_size(item)
        return total
    if kind is dict:
        return sum(map(_record_size, record)) + sum(
            map(_record_size, record.values())
        )
    sizer = _EXACT_SIZERS.get(kind)
    if sizer is not None:
        return sizer(record)
    if isinstance(record, (str, bytes)):
        return len(record)
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, dict):
        return sum(_record_size(key) + _record_size(value) for key, value in record.items())
    if isinstance(record, (tuple, list)):
        return sum(_record_size(item) for item in record)
    # An ndarray can only exist once numpy is loaded, and is none of the
    # types above: no import machinery on the per-record path.
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(record, numpy.ndarray):
        return int(record.nbytes)
    return len(str(record))


def mix_seed(seed: int, *streams: int) -> int:
    """Derive an independent child seed from ``seed`` and stream indexes.

    Used to make partitioned generation deterministic: partition ``i`` of a
    generator seeded with ``s`` always produces the same records, regardless
    of how many other partitions run or in which order.
    """
    import numpy as np

    sequence = np.random.SeedSequence(entropy=seed, spawn_key=tuple(streams))
    return int(sequence.generate_state(1)[0])


class DataGenerator(ABC):
    """Base class for all synthetic data generators (Figure 3).

    Sub-classes implement either :meth:`generate_partition` (materialized:
    the records of one partition as a list) or :meth:`iter_partition`
    (streamed: the same records, yielded one at a time) — each default
    implementation is defined in terms of the other, so one suffices.
    Streaming overrides must consume their random generator in the same
    order as the materialized loop would, which keeps the two paths
    bit-identical: ``generate(v)`` and the concatenation of
    ``iter_batches(v, chunk_size)`` produce the same records for the same
    seed, at every chunk size.

    The default :meth:`generate` produces a single partition covering the
    full volume.  Generators that preserve veracity additionally implement
    :meth:`fit` and must be fitted before generating.

    Fitted state is immutable.  Generating never changes the generator
    (each call draws from its own :meth:`rng_for_partition`), ``fit``
    binds new objects to the generator's attributes instead of writing
    into the ones an earlier fit bound, and fitted numpy arrays are
    read-only.  The fitted-model cache (:mod:`repro.datagen.models`)
    relies on it: it hands every holder a shallow copy that shares one
    fitted model, and a holder that fits its copy again on other data
    changes nobody else's output.
    """

    #: The data type this generator produces.
    data_type: DataType = DataType.TEXT
    #: Whether this generator learns a model from real data (veracity).
    veracity_aware: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._fitted = not self.veracity_aware

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, real_data: DataSet) -> "DataGenerator":
        """Learn a data model from a real data set (Figure 3, step 2).

        Veracity-unaware generators accept the call but ignore the data.
        Always trains: the fitted-model cache sits in front of the paths
        that fit a registered generator on a named seed source, not here.
        """
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ModelNotFittedError(
                f"{self.name} must be fitted on real data before generating; "
                "call fit(real_data) first"
            )

    def generate_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> list[Any]:
        """Generate the records for one partition of a ``volume``-sized set.

        ``volume`` is the *total* requested volume (the generator divides it
        among partitions); the unit is type-specific — documents for text,
        rows for tables, vertices for graphs, events for streams.

        The default materializes :meth:`iter_partition`; generators whose
        sampling is vectorised over the whole partition override this
        method instead.
        """
        return list(self.iter_partition(volume, partition, num_partitions))

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ) -> Iterator[Any]:
        """Yield the records of one partition, one at a time.

        Streaming generators override this; the default falls back to the
        subclass's materialized :meth:`generate_partition` (bit-identical,
        but peak memory is one partition instead of one record).
        """
        if type(self).generate_partition is DataGenerator.generate_partition:
            raise GenerationError(
                f"{self.name} implements neither generate_partition nor "
                "iter_partition"
            )
        yield from self.generate_partition(volume, partition, num_partitions)

    def iter_batches(
        self,
        volume: int,
        chunk_size: int | None = None,
        num_partitions: int = 1,
    ) -> Iterator[RecordBatch]:
        """Stream a ``volume``-sized generation as :class:`RecordBatch` chunks.

        The concatenated batches are bit-identical to :meth:`generate`
        (or :meth:`generate_parallel` when ``num_partitions > 1``) at the
        same seed, for every chunk size — chunking is re-slicing, not
        re-sampling.  Batches cross partition boundaries so every batch
        except the last holds exactly ``chunk_size`` records.

        When tracing is active, each batch bumps the ``batches`` counter
        and the running ``peak_batch_bytes`` maximum on the current span,
        so the bounded-memory claim is observable in span trees.
        """
        self._require_fitted()
        if volume < 0:
            raise GenerationError(f"volume must be non-negative, got {volume}")
        chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        if chunk_size <= 0:
            raise GenerationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        if num_partitions <= 0:
            raise GenerationError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        tracer = current_tracer()
        index = 0
        offset = 0
        buffer: list[Any] = []
        for partition in range(num_partitions):
            for record in self.iter_partition(volume, partition, num_partitions):
                buffer.append(record)
                if len(buffer) == chunk_size:
                    batch = RecordBatch(
                        records=buffer, data_type=self.data_type,
                        index=index, offset=offset,
                    )
                    _trace_batch(tracer, batch)
                    yield batch
                    offset += len(buffer)
                    index += 1
                    buffer = []
        if buffer:
            batch = RecordBatch(
                records=buffer, data_type=self.data_type,
                index=index, offset=offset,
            )
            _trace_batch(tracer, batch)
            yield batch

    def generate(self, volume: int, name: str | None = None) -> DataSet:
        """Generate a complete synthetic data set of the requested volume."""
        self._require_fitted()
        if volume < 0:
            raise GenerationError(f"volume must be non-negative, got {volume}")
        records = self.generate_partition(volume, partition=0, num_partitions=1)
        return self._wrap(records, name)

    def generate_parallel(
        self, volume: int, num_partitions: int, name: str | None = None
    ) -> DataSet:
        """Generate ``volume`` records split deterministically into partitions.

        The result is identical in distribution to :meth:`generate`; the
        point of partitioning is that each partition is independent
        (seeded through :meth:`rng_for_partition`), so a controller can
        call :meth:`generate_partition` concurrently or on several
        machines (Section 3.2, step 3) and merge in partition order.
        """
        self._require_fitted()
        if num_partitions <= 0:
            raise GenerationError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        records = []
        for partition in range(num_partitions):
            records.extend(
                self.generate_partition(volume, partition, num_partitions)
            )
        return self._wrap(records, name)

    def partition_volume(self, volume: int, partition: int, num_partitions: int) -> int:
        """The number of records partition ``partition`` must produce."""
        base, extra = divmod(volume, num_partitions)
        return base + (1 if partition < extra else 0)

    def rng_for_partition(self, partition: int, num_partitions: int) -> np.random.Generator:
        """A deterministic, partition-independent random generator."""
        import numpy as np

        return np.random.default_rng(mix_seed(self.seed, num_partitions, partition))

    def _wrap(self, records: list[Any], name: str | None) -> DataSet:
        return DataSet(
            name=name or f"{self.name.lower()}-output",
            data_type=self.data_type,
            records=records,
            metadata={"generator": self.name, "seed": self.seed},
        )


def _trace_batch(tracer: Any, batch: RecordBatch) -> None:
    """Count one streamed batch on the current span, if anyone is tracing.

    Sizing a batch walks every record, so the gauge's argument is only
    evaluated for a tracer that is on.
    """
    if tracer.enabled:
        tracer.count("batches")
        tracer.count_max("peak_batch_bytes", batch.estimated_bytes())


class PurelySyntheticMixin:
    """Marker mixin for generators whose output is independent of real data.

    The paper (Section 3.2, step 1) notes purely synthetic data is accepted
    for micro workloads (Sort/WordCount) and basic database operations.
    """

    veracity_aware = False


def as_dataset(
    records: Sequence[Any], data_type: DataType, name: str = "adhoc", **metadata: Any
) -> DataSet:
    """Convenience wrapper turning a plain record sequence into a DataSet."""
    return DataSet(name=name, data_type=data_type, records=list(records), metadata=dict(metadata))
