"""A content-addressed cache of fitted generators (Figure 3, step 2).

The paper separates *learning* a data model from real data (step 2) from
*generating* at the requested volume (step 3): a model is trained once
and then drives generation at any volume.  :class:`DatasetCache` keeps
the product of step 3; this module keeps the product of step 2, so a
volume sweep, the repeats of a chunked run, or a second ``api.run`` in
one process fit each model once.

The key is a content address, not a name: the generator's class and its
whole unfitted state (seed and hyperparameters, nested models included),
the name of the seed source and the loader :data:`SEED_SOURCES` binds it
to.  Two registries that bind one name differently, or one generator at
different hyperparameters, never share an entry.  A state with no
content address (:func:`content_digest` raises) is fitted every time.

A hit hands back a shallow copy of the cached generator, so the fitted
model is shared, never copied.  That is safe under the contract
:class:`~repro.datagen.base.DataGenerator` states: fitted state is
immutable, ``fit`` binds new objects instead of writing into old ones.

A miss asks the disk before it fits (DESIGN.md §3.16): a fitted model
is a file under ``$XDG_CACHE_HOME/repro/models``, its
:meth:`~repro.datagen.base.DataGenerator.fitted_state` as JSON plus
numpy arrays (never a pickle), named by the memory address extended by
what the process cannot see change: the source hash of the modules of
the generator's class and its bases, the source hash of the loader's
module, and the numpy and Python versions.  No digest of the seed data
is taken, so a disk hit loads no seed set at all.  A loader or class
defined inside a function, or a class whose ``fit`` comes without its
own ``fitted_state``, is kept in memory only.

The same address, extended by the volume and the partition count, names
one deterministic data set, and the size of that data set
(``estimated_bytes()``, a walk over every record) is a function of it.
The cache remembers the integer, so a process measures each data set it
generates once (:meth:`ModelCache.dataset_bytes`).

Only fitted generators and integers are held, never records.
``generator.fit(dataset)`` called directly does not come here and fits
every time.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import io
import json
import os
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass
from importlib.util import find_spec, source_hash
from typing import Any

from repro import _filecache
from repro.core.prescription import SEED_SOURCES, load_seed
from repro.datagen.base import DataGenerator, DataSet
from repro.datagen.cache import LruCache
from repro.observability import current_tracer, trace_span

#: Fitted generators kept per cache; a model is kilobytes, and no run
#: names more than a handful.
MAX_MODELS = 16
#: Data-set sizes kept per cache: an address and an integer each, so a
#: long sweep fits and a service that runs for days stays bounded.
MAX_SIZES = 1024
#: The first bytes of a model file: its format, which no other file in
#: the cache starts with.
MODEL_FORMAT = b"repro fitted model 1\n"


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
    #: ``"hit"`` (served from memory), ``"disk"`` (read from the model
    #: an earlier process fitted) or ``"fitted"`` (trained now).
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
        ``generator`` itself is restored from disk or fitted and
        returned (the cache keeps a copy); on a hit it is left untouched
        and a copy of the cached generator is returned.
        """
        if source is None:
            return generator
        key = self.address(generator, source)
        if key is None:
            self._fit(generator, source)
            return generator

        def restore_or_fit() -> DataGenerator:
            path = _model_path(generator, key)
            if path is None or not _read_model(path, generator):
                self._fit(generator, source)
                if path is not None:
                    _write_model(path, generator)
            else:
                current_tracer().count("cache.model_disk_hits")
                self._record(ModelUse(source, "disk", 0.0))
            return copy.copy(generator)

        cached, made = self._models.get_or_make(key, restore_or_fit)
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
        before fitting), the source's name and the name of its loader;
        ``None`` when the state has no content address.
        """
        try:
            digest = content_digest(generator)
        except (TypeError, RecursionError):
            return None
        return (digest, source, None if source is None else _loader_name(source))

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
        """Drop every entry and reset the counters (the disk keeps its
        models)."""
        self._models.clear()
        self._sizes.clear()

    def __len__(self) -> int:
        return len(self._models)


# ----------------------------------------------------------------------
# The disk tier
# ----------------------------------------------------------------------


def _loader_name(source: str) -> str | None:
    """The ``"module:qualified name"`` of the loader bound to ``source``."""
    loader = SEED_SOURCES.get(source)
    if isinstance(loader, str) or loader is None:
        return loader
    qualified = getattr(loader, "__qualname__", None)
    return None if qualified is None else f"{loader.__module__}:{qualified}"


def _module_hash(name: str) -> str | None:
    """``importlib.util.source_hash`` of a module's source file, found
    without importing the module; ``None`` when there is no source."""
    module = sys.modules.get(name)
    path = getattr(module, "__file__", None)
    if path is None:
        try:
            spec = find_spec(name)
        except (ImportError, ValueError):
            return None
        path = None if spec is None else spec.origin
    data = _filecache.read(path) if path and path.endswith(".py") else None
    return None if data is None else source_hash(data).hex()


def _model_path(generator: DataGenerator, address: tuple) -> str | None:
    """Where the model of ``generator`` at memory ``address`` lives on
    disk; ``None`` when it is kept in memory only."""
    kind = type(generator)
    owner = next((klass for klass in kind.__mro__ if "fit" in vars(klass)), object)
    loader = address[2]
    if (
        "fitted_state" not in vars(owner) or loader is None
        or "<" in kind.__qualname__ or "<" in loader
    ):
        return None
    modules = sorted({
        klass.__module__ for klass in kind.__mro__
        if klass.__module__.partition(".")[0] not in sys.stdlib_module_names
    })
    hashes = [_module_hash(name) for name in (*modules, loader.partition(":")[0])]
    root = _filecache.cache_root("models")
    if root is None or None in hashes:
        return None
    import numpy

    name = json.dumps(
        [*address, modules, hashes, numpy.__version__, sys.version]
    )
    return os.path.join(root, hashlib.sha256(name.encode()).hexdigest() + ".model")


def _write_model(path: str, generator: DataGenerator) -> None:
    """The fitted state of ``generator`` at ``path``: JSON, a newline,
    then an ``.npz`` of its arrays.  Nothing is written for a state that
    JSON and plain numpy arrays cannot hold exactly."""
    import numpy

    state = generator.fitted_state()
    arrays = {
        name: value for name, value in state.items()
        if isinstance(value, numpy.ndarray)
    }
    plain = {name: value for name, value in state.items() if name not in arrays}
    if not _is_plain(plain) or any(array.dtype.hasobject for array in arrays.values()):
        return
    npz = io.BytesIO()
    numpy.savez(npz, **arrays)
    document = {"address": _address_of(path), "state": plain}
    _filecache.store(
        path, MODEL_FORMAT, json.dumps(document).encode() + b"\n" + npz.getvalue()
    )


def _read_model(path: str, generator: DataGenerator) -> bool:
    """Restore ``generator`` from the model at ``path``; ``False`` when
    there is none to restore from."""
    payload = _filecache.load(path, MODEL_FORMAT)
    if payload is None:
        return False
    import numpy
    from zipfile import BadZipFile

    text, _, npz = payload.partition(b"\n")
    try:
        document = json.loads(text)
        if document["address"] != _address_of(path):
            return False  # a model of another address, under this name
        with numpy.load(io.BytesIO(npz), allow_pickle=False) as arrays:
            state = {**document["state"], **{name: arrays[name] for name in arrays}}
        generator.restore_fitted(state)
    # A file that passed its check but does not decode, or decodes to
    # what this generator cannot take, is a miss like any other: the
    # generator is fitted, which binds every fitted attribute anew.
    except (
        ValueError, TypeError, LookupError, AttributeError, EOFError, OSError,
        BadZipFile,
    ):
        return False
    return True


def _address_of(path: str) -> str:
    return os.path.basename(path).removesuffix(".model")


def _is_plain(value: Any) -> bool:
    """Whether JSON gives ``value`` back as it is, types included."""
    kind = type(value)
    if value is None or kind in (bool, int, float, str):
        return True
    if kind is list:
        return all(map(_is_plain, value))
    if kind is dict:
        return all(type(key) is str and _is_plain(item) for key, item in value.items())
    return False


#: The process-wide cache every fitting path uses unless handed another.
PROCESS_MODELS = ModelCache()
# A forked worker inherits the entries and the sizes, not the flights: a
# fit in progress in the parent has no thread there to finish it.
os.register_at_fork(after_in_child=PROCESS_MODELS._models.after_fork)
os.register_at_fork(after_in_child=PROCESS_MODELS._sizes.after_fork)

