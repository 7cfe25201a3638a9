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
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any

from repro.core.prescription import load_seed
from repro.datagen.base import DataGenerator, DataSet
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
    with a ``__dict__`` (by class path and attributes).  Types keep
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
    elif hasattr(value, "__dict__") and not callable(value):
        update(f"object:{_class_path(kind)}(".encode())
        for name, item in sorted(vars(value).items()):
            _feed(update, name)
            _feed(update, item)
        update(b")")
    else:
        raise TypeError(f"{_class_path(kind)} has no content address")


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
    requests over the cache's life; :meth:`recording` reports the
    requests of one thread inside one block.

    Beside the models it keeps the measured size of each data set they
    generated, by the same content address (:meth:`dataset_bytes`).
    """

    def __init__(self, max_entries: int = MAX_MODELS) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, DataGenerator] = OrderedDict()
        #: (generator address, volume, partitions) → ``estimated_bytes()``.
        self._sizes: OrderedDict[tuple, int] = OrderedDict()
        self._lock = threading.Lock()
        self._flights: dict[tuple, threading.Lock] = {}
        #: source → (the data set digested, its digest); ``load_seed``
        #: returns one object per source and process, so identity tells
        #: whether the digest is still of the data a fit would see.
        self._seed_digests: dict[str, tuple[DataSet, str]] = {}
        self._recorder = threading.local()
        self.hits = 0
        self.misses = 0

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
        cached = self._hit(key)
        if cached is None:
            with self._flight(key):
                cached = self._hit(key)
                if cached is None:
                    self._fit(generator, source)
                    with self._lock:
                        self._entries[key] = copy.copy(generator)
                        while len(self._entries) > self.max_entries:
                            self._entries.popitem(last=False)
                    return generator
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
        with self._lock:
            nbytes = self._sizes.get(address)
            if nbytes is not None:
                self._sizes.move_to_end(address)
        sizing = "known"
        if nbytes is None:
            sizing = "measured"
            nbytes = dataset.estimated_bytes()
            if address is not None:
                with self._lock:
                    self._sizes[address] = nbytes
                    while len(self._sizes) > MAX_SIZES:
                        self._sizes.popitem(last=False)
        self._record(SizeUse(sizing, nbytes))
        return nbytes

    @contextmanager
    def _flight(self, key: tuple) -> Iterator[None]:
        """Hold the key's lock: one fit per key at a time."""
        with self._lock:
            flight = self._flights.setdefault(key, threading.Lock())
        with flight:
            try:
                yield
            finally:
                # Retired even when the fit raises, or every later
                # request for this key would wait on a dead flight.
                with self._lock:
                    self._flights.pop(key, None)

    def _seed_digest(self, source: str) -> str:
        dataset = load_seed(source)
        memo = self._seed_digests.get(source)
        if memo is None or memo[0] is not dataset:
            memo = self._seed_digests[source] = (dataset, content_digest(dataset))
        return memo[1]

    def _hit(self, key: tuple) -> DataGenerator | None:
        source = key[1]
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        current_tracer().count("cache.model_hits")
        self._record(ModelUse(source, "hit", 0.0))
        return cached

    def _fit(self, generator: DataGenerator, source: str) -> None:
        with trace_span("fit", source=source):
            started = time.perf_counter()
            generator.fit(load_seed(source))
            seconds = time.perf_counter() - started
        with self._lock:
            self.misses += 1
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
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._seed_digests.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _after_fork(self) -> None:
        # A forked worker inherits the entries and the sizes, not the
        # flights: a fit in progress in the parent has no thread here to
        # finish it.
        self._lock = threading.Lock()
        self._flights = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


#: The process-wide cache every fitting path uses unless handed another.
PROCESS_MODELS = ModelCache()
os.register_at_fork(after_in_child=PROCESS_MODELS._after_fork)
