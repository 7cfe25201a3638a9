"""Warm process worker pools: task streams instead of task payloads.

The historical process backend shipped every task as a self-contained
pickled payload — prescription, metric suite, engine configuration —
and rebuilt a runner (plus regenerated the data set) inside the worker
for *every task*.  Fan-out lost to a plain loop: the pool spawned per
batch, the payloads carried kilobytes per task, and N workers generated
the same deterministic data set N times.

This module keeps the pool — and everything expensive in it — **warm**:

* Each worker runs :func:`_initialize_worker` once, building a serial
  :class:`~repro.execution.runner.TestRunner`, resolving the metric
  suite, and adopting any dataset handles known at pool creation into
  its local :class:`~repro.datagen.cache.DatasetCache`.
* Tasks then arrive as :class:`TaskDescriptor` objects — the ``RunTask``
  with a prescription *name* when the worker can resolve it, a dataset
  *handle* instead of records, and a handful of transport scalars —
  and run through the same :meth:`TestRunner.run_task` every in-process
  backend uses.  Payload size is observable: when tracing is on, each
  task span carries ``payload_bytes``.
* Data sets ship through :mod:`repro.datagen.handoff`: serialized once
  per pool into shared memory (or referenced as an existing spill
  file), re-streamed in place by each worker — or not shipped at all
  (a ``fingerprint`` handle), in which case the worker regenerates the
  identical records deterministically and caches them for every later
  task the pool sends it.
* The pool itself outlives ``run_many``: :class:`WorkerPool` is cached
  on the runner and reused batch after batch (``pool_batch`` on each
  task span counts the reuse), invalidated only when the options or
  suite it was initialized with change.

Batches are submitted with a computed :func:`compute_chunksize`, so a
sweep of many small tasks costs a few pipe round-trips, not one per
task.
"""

from __future__ import annotations

import os
import time
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.errors import ExecutionError
from repro.datagen.cache import DatasetCache
from repro.datagen.handoff import (
    DatasetHandle,
    ExportedDataset,
    export_dataset,
    fingerprint_handle,
)
from repro.execution.parallel import compute_chunksize

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "TaskDescriptor",
    "WorkerInit",
    "WorkerPool",
    "WorkerPoolError",
    "annotate_task_trace",
    "compute_chunksize",
    "shipped_prescription",
]


class WorkerPoolError(ExecutionError):
    """A batch cannot go to the worker pool: a task's engine
    configuration cannot be pickled (the message names the engine)."""


# ---------------------------------------------------------------------------
# What crosses the boundary
# ---------------------------------------------------------------------------


@dataclass
class WorkerInit:
    """Everything a worker needs exactly once, pickled at pool spawn.

    ``options`` holds the scalar :class:`RunnerOptions` kwargs for the
    worker's serial runner (repeats, warmups, format checking, task
    timeout); retry/on-error policy travels per task instead, so
    per-call overrides never force a pool rebuild.
    """

    options: dict[str, Any] = field(default_factory=dict)
    #: The runner's metric suite (None → the worker builds the standard
    #: suite, which is also what an unpicklable suite degrades to).
    suite: Any = None


@dataclass
class TaskDescriptor:
    """One task on the warm path: the ``RunTask`` plus transport fields.

    Deliberately tiny — the worker already holds the runner and suite,
    and the records travel (at most once) through shared memory.
    ``task`` is the :class:`~repro.execution.runner.RunTask`
    itself with its prescription in shipped form (a worker-resolvable
    name when possible), so a new task field crosses the boundary
    without this module knowing it; everything else here is what only
    the transport knows.
    """

    task: Any
    #: How the worker obtains the data set (see :mod:`repro.datagen.handoff`);
    #: None when the task streams (``chunk_size``) or the key is unknowable.
    handle: DatasetHandle | None
    on_error: str
    #: The :class:`~repro.execution.retry.RetryPolicy`, by value.
    retry_policy: Any
    task_index: int
    #: Parent wall clock at submission (``time.time()`` — the one clock
    #: both sides of the boundary share).
    submitted_wall: float
    trace: bool
    #: Ordinal of the ``run_many`` batch this pool is serving (0-based);
    #: values above zero on a task span are the pool-reuse evidence.
    pool_batch: int
    #: Pickled size of this descriptor, recorded by the parent when
    #: tracing so span trees surface what actually crossed the pipe.
    payload_bytes: int | None = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_CONTEXT: "WorkerContext | None" = None


def _initialize_worker(
    init: WorkerInit, handles: tuple[DatasetHandle, ...] = ()
) -> None:
    """Pool initializer: build the worker's context exactly once."""
    global _CONTEXT
    import repro  # noqa: F401 — fills the registries in the worker

    _CONTEXT = WorkerContext(init, handles)


def _run_descriptor(descriptor: TaskDescriptor) -> Any:
    if _CONTEXT is None:  # pragma: no cover - initializer always ran
        raise ExecutionError("worker received a task before initialization")
    return _CONTEXT.run(descriptor)


class WorkerContext:
    """Per-worker state: a serial runner that persists across tasks."""

    def __init__(
        self, init: WorkerInit, handles: Iterable[DatasetHandle] = ()
    ) -> None:
        from repro.execution.runner import RunnerOptions, TestRunner

        self.runner = TestRunner(
            options=RunnerOptions(executor="serial", **init.options),
            suite=init.suite,
        )
        for handle in handles:
            self.adopt(handle)

    # ------------------------------------------------------------------

    def adopt(self, handle: DatasetHandle | None) -> None:
        """Make a shipped data set available as a local cache hit.

        Byte-carrying handles are re-streamed (shared memory read in
        place, spill files from disk) and stored under their cache key;
        ``fingerprint`` handles adopt nothing — the first task to need
        the data regenerates it into the cache deterministically.
        """
        cache = self.runner.test_generator.dataset_cache
        if (
            handle is None
            or handle.kind == "fingerprint"
            or handle.key in cache
        ):
            return
        try:
            cache.put(handle.key, handle.open().materialize())
        except Exception:  # noqa: BLE001 - degrade to regeneration
            # A vanished spill file or unmapped segment is not fatal:
            # the task falls back to deterministic regeneration.
            pass

    def run(self, descriptor: TaskDescriptor) -> Any:
        """Execute one descriptor on the persistent runner."""
        from repro.execution.runner import TRACE_EXTRA_KEY

        self.adopt(descriptor.handle)
        cache = self.runner.test_generator.dataset_cache
        cache_before = cache.stats()
        outcome = self.runner.run_task(
            descriptor.task,
            descriptor.retry_policy,
            descriptor.on_error,
            index=descriptor.task_index,
            trace=descriptor.trace,
            queue_wait=max(0.0, time.time() - descriptor.submitted_wall),
        )
        annotate_task_trace(
            outcome.extra.get(TRACE_EXTRA_KEY),
            payload_bytes=descriptor.payload_bytes,
            pool_batch=descriptor.pool_batch,
        )
        outcome.extra["worker_cache"] = (
            cache.stats().since(cache_before).as_dict()
        )
        outcome.extra["worker"] = {
            "pid": os.getpid(),
            "pool_batch": descriptor.pool_batch,
        }
        return outcome


def annotate_task_trace(
    trees: list[dict[str, Any]] | None,
    payload_bytes: int | None = None,
    pool_batch: int | None = None,
) -> None:
    """Stamp payload/pool facts onto serialized task span trees.

    ``payload_bytes`` lands both as an attribute (readable in the tree)
    and as a ``task.payload_bytes`` counter (aggregated by
    ``summarize_spans``), so trace summaries keep the shipped-bytes
    total visible — the overhead this layer exists to remove.
    """
    for root in trees or []:
        if payload_bytes is not None:
            root.setdefault("attrs", {})["payload_bytes"] = payload_bytes
            counters = root.setdefault("counters", {})
            counters["task.payload_bytes"] = (
                counters.get("task.payload_bytes", 0) + payload_bytes
            )
        if pool_batch is not None:
            root.setdefault("attrs", {})["pool_batch"] = pool_batch


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _release_pool_state(state: dict[str, Any]) -> None:
    """Finalizer shared by explicit shutdown and garbage collection."""
    pool = state.get("pool")
    if pool is not None:
        pool.shutdown(wait=True)
        state["pool"] = None
    exports = state.get("exports", {})
    for export in exports.values():
        export.close()
    exports.clear()


class WorkerPool:
    """A reusable warm process pool plus its exported data sets.

    Owned by a :class:`~repro.execution.runner.TestRunner` and kept
    alive across ``run_many`` / sweep calls; the underlying
    :class:`ProcessPoolExecutor` is created lazily on the first batch so
    dataset handles exported for that batch ride along in the worker
    initializer.  Shutdown (explicit or via garbage collection) releases
    the workers and every shared-memory segment the pool exported.
    """

    def __init__(self, init: WorkerInit, max_workers: int) -> None:
        self.init = init
        self.max_workers = max_workers
        #: ``run_many`` batches served — the pool-reuse counter.
        self.batches = 0
        self._state: dict[str, Any] = {"pool": None, "exports": {}}
        self._finalizer = weakref.finalize(
            self, _release_pool_state, self._state
        )

    # ------------------------------------------------------------------

    @property
    def exports(self) -> dict[str, ExportedDataset]:
        return self._state["exports"]

    def handle_for(self, key: tuple, source: Any) -> DatasetHandle:
        """The (memoized) handle shipping ``source`` to this pool's workers.

        The first request serializes the data set into shared bytes;
        every later batch reuses the same export, so a data set crosses
        the boundary at most once per pool lifetime.
        """
        fingerprint = DatasetCache.fingerprint(key)
        export = self.exports.get(fingerprint)
        if export is None:
            export = export_dataset(key, fingerprint, source)
            self.exports[fingerprint] = export
        return export.handle

    @staticmethod
    def fingerprint_handle_for(key: tuple) -> DatasetHandle:
        """A byte-free handle: workers regenerate deterministically."""
        return fingerprint_handle(key, DatasetCache.fingerprint(key))

    # ------------------------------------------------------------------

    def run_batch(self, descriptors: list[TaskDescriptor]) -> list[Any]:
        """Run one batch on the warm workers, results in submission order."""
        pool = self._ensure_pool()
        self.batches += 1
        chunksize = compute_chunksize(len(descriptors), self.max_workers)
        return list(
            pool.map(_run_descriptor, descriptors, chunksize=chunksize)
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._state["pool"] is None:
            from concurrent.futures import ProcessPoolExecutor

            handles = tuple(
                export.handle for export in self.exports.values()
            )
            self._state["pool"] = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_initialize_worker,
                initargs=(self.init, handles),
            )
        return self._state["pool"]

    def shutdown(self) -> None:
        """Release workers and exported segments (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(max_workers={self.max_workers}, "
            f"batches={self.batches}, exports={len(self.exports)})"
        )


# ---------------------------------------------------------------------------
# Prescription shipping
# ---------------------------------------------------------------------------

_BUILTIN_REPOSITORY = None
_BUILTIN_PICKLES: dict[str, bytes | None] = {}


def _builtin_pickle(name: str) -> bytes | None:
    """The pickled built-in prescription for ``name`` (memoized), or None.

    None means the built-in repository has no such name, or its entry is
    unpicklable (iterative stopping-condition callables).
    """
    global _BUILTIN_REPOSITORY
    if name in _BUILTIN_PICKLES:
        return _BUILTIN_PICKLES[name]
    if _BUILTIN_REPOSITORY is None:
        from repro.core.prescription import builtin_repository

        _BUILTIN_REPOSITORY = builtin_repository()
    payload: bytes | None = None
    if name in _BUILTIN_REPOSITORY:
        import pickle

        try:
            payload = pickle.dumps(_BUILTIN_REPOSITORY.get(name))
        except Exception:  # noqa: BLE001 - unpicklable builtin
            payload = None
    _BUILTIN_PICKLES[name] = payload
    return payload


def shipped_prescription(resolved: Any) -> Any:
    """Name when the worker resolves it identically, else by value.

    A prescription that pickles byte-for-byte like the built-in
    repository's entry of the same name ships as its name — the worker's
    own repository reproduces it, so the descriptor stays bytes-small.
    Anything else ships by value when picklable; unpicklable
    prescriptions (iterative stopping conditions) fall back to the name.
    """
    import pickle

    try:
        payload = pickle.dumps(resolved)
    except Exception:  # noqa: BLE001 - the worker resolves the name
        return resolved.name
    if payload == _builtin_pickle(resolved.name):
        return resolved.name
    return resolved
