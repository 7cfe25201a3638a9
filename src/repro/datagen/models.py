"""A content-addressed cache of fitted generators (Figure 3, step 2).

The paper separates *learning* a data model from real data (step 2) from
*generating* at the requested volume (step 3): a model is trained once
and then drives generation at any volume.  :class:`DatasetCache` keeps
the product of step 3; this module keeps the product of step 2, so a
volume sweep, the repeats of a chunked run, or a second ``api.run`` in
one process fit each model once.

The key is a content address, not a name: the generator's class and its
whole unfitted state (seed and hyperparameters, nested models included),
the name of the seed source, and a digest of the seed data itself.  Two
registries that bind one name differently, or one generator at different
hyperparameters, never share an entry.  A state with no content address
(:func:`content_digest` raises) is fitted every time.

A hit hands back a shallow copy of the cached generator, so the fitted
model is shared, never copied.  That is safe under the contract
:class:`~repro.datagen.base.DataGenerator` states: fitted state is
immutable, ``fit`` binds new objects instead of writing into old ones.

The same address, extended by the volume and the partition count, names
one deterministic data set, and the size of that data set
(``estimated_bytes()``, a walk over every record) is a function of it.
The cache remembers the integer, so a process measures each data set it
generates once (:meth:`ModelCache.dataset_bytes`).

Only fitted generators and integers are held, never records, and nothing
is written to disk.  ``generator.fit(dataset)`` called directly does not
come here and fits every time.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import os
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Any

from repro.core.prescription import load_seed
from repro.datagen.base import DataGenerator, DataSet
from repro.datagen.cache import LruCache
from repro.observability import current_tracer, trace_span

#: Fitted generators kept per cache; a model is kilobytes, and no run
#: names more than a handful.
MAX_MODELS = 16
#: Data-set sizes kept per cache: an address and an integer each, so a
#: long sweep fits and a service that runs for days stays bounded.
MAX_SIZES = 1024


def content_digest(value: Any) -> str:
    """The sha256 content address of plain data and plain objects.

    Covers what generator state and seed records are made of: scalars,
    strings, containers, enums, numpy arrays and scalars, and objects
    with a ``__dict__`` (by class path and attributes); a stream's
    :class:`~repro.datagen.stream.EventColumns` is addressed as the list
    of its events.  Types keep
    their identity (``1``, ``1.0`` and ``True`` differ) and dicts their
    order, which a schema's columns depend on.  Anything else — a
    callable, a lock, an open file — has no content address and raises
    :class:`TypeError`.
    """
    digest = hashlib.sha256()
    _feed(digest.update, value)
    return digest.hexdigest()


def _feed(update: Callable[[bytes], None], value: Any) -> None:
    kind = type(value)
    if value is None or kind in (bool, int, float):
        update(f"{kind.__name__}:{value!r};".encode())
    elif kind is str or kind is bytes:
        data = value.encode("utf-8", "surrogatepass") if kind is str else value
        update(f"{kind.__name__}{len(data)}:".encode())
        update(data)
    elif kind in (list, tuple):
        update(f"{kind.__name__}{len(value)}(".encode())
        for item in value:
            _feed(update, item)
        update(b")")
    elif kind is dict:
        update(f"dict{len(value)}(".encode())
        for key, item in value.items():
            _feed(update, key)
            _feed(update, item)
        update(b")")
    elif kind in (set, frozenset):
        update(f"{kind.__name__}{len(value)}(".encode())
        for item in sorted(content_digest(item) for item in value):
            update(item.encode())
        update(b")")
    elif isinstance(value, enum.Enum):
        update(f"enum:{_class_path(kind)}.{value.name};".encode())
    elif hasattr(value, "dtype") and hasattr(value, "tobytes"):
        # A numpy array or scalar, told by shape so numpy is not imported.
        if value.dtype.hasobject:
            _feed(update, value.tolist())
        else:
            update(f"array:{value.dtype.str}{value.shape}".encode())
            update(value.tobytes())
    elif (
        hasattr(value, "__dict__") or is_dataclass(value)
    ) and not callable(value):
        # A slotted dataclass (a stream event) has no ``__dict__``: its
        # fields are what ``vars`` gave before it was slotted.
        attributes = (
            vars(value)
            if hasattr(value, "__dict__")
            else {item.name: getattr(value, item.name) for item in fields(value)}
        )
        update(f"object:{_class_path(kind)}(".encode())
        for name, item in sorted(attributes.items()):
            _feed(update, name)
            _feed(update, item)
        update(b")")
    elif _is_event_columns(value):
        # A generated stream's records: the address of the list of
        # events they stand for.
        _feed(update, value.events())
    else:
        raise TypeError(f"{_class_path(kind)} has no content address")


def _is_event_columns(value: Any) -> bool:
    # Only a process that loaded the stream module can hold one, so
    # digests of everything else import neither it nor numpy.
    stream = sys.modules.get("repro.datagen.stream")
    return stream is not None and isinstance(value, stream.EventColumns)


def _class_path(kind: type) -> str:
    return f"{kind.__module__}.{kind.__qualname__}"


@dataclass(frozen=True)
class ModelUse:
    """What one request for a fitted generator did."""

    #: The seed source the generator is fitted on.
    source: str
    #: ``"hit"`` (served from the cache) or ``"fitted"`` (trained now).
    cache: str
    #: Seconds this request spent in ``fit``; zero on a hit.
    fit_seconds: float

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SizeUse:
    """What one request for a generated data set's size did."""

    #: ``"known"`` (this process had measured that content address) or
    #: ``"measured"`` (the records were walked now).
    sizing: str
    nbytes: int


class ModelCache:
    """An LRU cache of fitted generators, single-flight per key.

    Thread-safe: concurrent requests for one key run one fit and share
    it, distinct keys fit concurrently.  ``hits`` and ``misses`` count
    requests for content-addressed models over the cache's life;
    :meth:`recording` reports the requests of one thread inside one
    block.

    Beside the models it keeps the measured size of each data set they
    generated, by the same content address (:meth:`dataset_bytes`).
    Both tables are :class:`~repro.datagen.cache.LruCache` s.
    """

    def __init__(self) -> None:
        self._models = LruCache(MAX_MODELS)
        #: (generator address, volume, partitions) → ``estimated_bytes()``.
        self._sizes = LruCache(MAX_SIZES)
        #: source → (the data set digested, its digest); ``load_seed``
        #: returns one object per source and process, so identity tells
        #: whether the digest is still of the data a fit would see.
        self._seed_digests: dict[str, tuple[DataSet, str]] = {}
        self._recorder = threading.local()

    @property
    def hits(self) -> int:
        return self._models.hits

    @property
    def misses(self) -> int:
        return self._models.misses

    def fitted(
        self, generator: DataGenerator, source: str | None
    ) -> DataGenerator:
        """``generator`` fitted on the named seed source, fitting on a miss.

        The one place a registered generator meets its seed data.  A
        generator with no seed source is returned as it is.  On a miss
        ``generator`` itself is fitted and returned (the cache keeps a
        copy); on a hit it is left untouched and a copy of the cached
        generator is returned.
        """
        if source is None:
            return generator
        key = self.address(generator, source)
        if key is None:
            self._fit(generator, source)
            return generator

        def fit() -> DataGenerator:
            self._fit(generator, source)
            return copy.copy(generator)

        cached, made = self._models.get_or_make(key, fit)
        if made:
            return generator
        current_tracer().count("cache.model_hits")
        self._record(ModelUse(source, "hit", 0.0))
        return copy.copy(cached)

    def address(
        self, generator: DataGenerator, source: str | None
    ) -> tuple | None:
        """The content address of ``generator`` once fitted on ``source``.

        The generator's class and whole state as it stands (so ask
        before fitting), the source's name and a digest of its data;
        ``None`` when the state has no content address.
        """
        try:
            return (
                content_digest(generator),
                source,
                None if source is None else self._seed_digest(source),
            )
        except (TypeError, RecursionError):
            return None

    def dataset_bytes(self, address: tuple | None, dataset: DataSet) -> int:
        """``dataset.estimated_bytes()``, walked once per address.

        ``address`` names the deterministic generation that produced
        ``dataset``: :meth:`address` of its generator, then the volume
        and the partition count.  The first request for an address
        measures the data set and keeps the integer, later ones read it
        back; ``None`` (no content address) measures every time.
        """
        if address is None:
            nbytes, made = dataset.estimated_bytes(), True
        else:
            nbytes, made = self._sizes.get_or_make(address, dataset.estimated_bytes)
        self._record(SizeUse("measured" if made else "known", nbytes))
        return nbytes

    def _seed_digest(self, source: str) -> str:
        dataset = load_seed(source)
        memo = self._seed_digests.get(source)
        if memo is None or memo[0] is not dataset:
            memo = self._seed_digests[source] = (dataset, content_digest(dataset))
        return memo[1]

    def _fit(self, generator: DataGenerator, source: str) -> None:
        with trace_span("fit", source=source):
            started = time.perf_counter()
            generator.fit(load_seed(source))
            seconds = time.perf_counter() - started
        current_tracer().count("cache.model_misses")
        self._record(ModelUse(source, "fitted", seconds))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @contextmanager
    def recording(self) -> Iterator[list[ModelUse | SizeUse]]:
        """Collect the requests this thread makes inside the block.

        Per thread, so a report states what *its* call did even while
        other threads (service schedulers, pool threads) use the cache.
        """
        outer = getattr(self._recorder, "uses", None)
        self._recorder.uses = uses = []
        try:
            yield uses
        finally:
            self._recorder.uses = outer

    def _record(self, use: ModelUse | SizeUse) -> None:
        uses = getattr(self._recorder, "uses", None)
        if uses is not None:
            uses.append(use)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._models.clear()
        self._sizes.clear()
        self._seed_digests.clear()

    def __len__(self) -> int:
        return len(self._models)


#: The process-wide cache every fitting path uses unless handed another.
PROCESS_MODELS = ModelCache()
# A forked worker inherits the entries and the sizes, not the flights: a
# fit in progress in the parent has no thread there to finish it.
os.register_at_fork(after_in_child=PROCESS_MODELS._models.after_fork)
os.register_at_fork(after_in_child=PROCESS_MODELS._sizes.after_fork)
