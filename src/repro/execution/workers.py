"""Warm process worker pools: task streams instead of task payloads.

The historical process backend shipped every task as a self-contained
pickled payload — prescription, metric suite, engine configuration —
and rebuilt a runner (plus regenerated the data set) inside the worker
for *every task*.  Fan-out lost to a plain loop: the pool spawned per
batch, the payloads carried kilobytes per task, and N workers generated
the same deterministic data set N times.

This module keeps the pool — and everything expensive in it — **warm**:

* Each worker runs :func:`_initialize_worker` once, building a serial
  :class:`~repro.execution.runner.TestRunner` from the parent runner's
  options (the whole policy, so no task carries any), and putting the
  data sets the parent held when the pool was created into its local
  :class:`~repro.datagen.cache.DatasetCache`.  Both travel as the
  initializer's arguments: a forked worker inherits them in memory,
  any other start method pickles them once per worker.
* Tasks then arrive as :class:`TaskDescriptor` objects — the ``RunTask``
  with a prescription *name* when the worker can resolve it, and a
  handful of transport scalars — and run through the same
  :meth:`TestRunner.run_task` every in-process backend uses.  Payload
  size is observable: when tracing is on, each task span carries
  ``payload_bytes``.
* A data set the worker was not handed at creation is regenerated
  there under the key the worker computes itself — generation is
  deterministic and content-addressed — and cached for every later
  task the pool sends it.
* The pool itself outlives ``run_many``: :class:`WorkerPool` is cached
  on the runner and reused batch after batch (``pool_batch`` on each
  task span counts the reuse) until the runner closes: a runner's
  options are fixed when it is built, so its pool never goes stale.

Batches are submitted with a computed :func:`compute_chunksize`, so a
sweep of many small tasks costs a few pipe round-trips, not one per
task.
"""

from __future__ import annotations

import gc
import os
import time
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro._util import collector_paused
from repro.core.errors import ExecutionError
from repro.execution.parallel import compute_chunksize

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.datagen.base import DataSet
    from repro.execution.runner import RunnerOptions

__all__ = [
    "TaskDescriptor",
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
class TaskDescriptor:
    """One task on the warm path: the ``RunTask`` plus transport fields.

    Deliberately tiny — the worker already holds the runner and its
    options, and the records never travel with a task.
    ``task`` is the :class:`~repro.execution.runner.RunTask`
    itself with its prescription in shipped form (a worker-resolvable
    name when possible), so a new task field crosses the boundary
    without this module knowing it; everything else here is what only
    the transport knows.
    """

    task: Any
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
    options: RunnerOptions, datasets: Mapping[tuple, DataSet]
) -> None:
    """Pool initializer: build the worker's context exactly once.

    A worker forked inside a parent's ``run_many`` inherits its paused
    collector; it starts with the collector on, as a spawned one does,
    and pauses it per task (DESIGN §3.21).
    """
    global _CONTEXT
    import repro  # noqa: F401 — fills the registries in the worker

    gc.enable()
    _CONTEXT = WorkerContext(options, datasets)


def _run_descriptor(descriptor: TaskDescriptor) -> Any:
    if _CONTEXT is None:  # pragma: no cover - initializer always ran
        raise ExecutionError("worker received a task before initialization")
    return _CONTEXT.run(descriptor)


class WorkerContext:
    """Per-worker state: a runner on the pool's options, kept across tasks."""

    def __init__(
        self, options: RunnerOptions, datasets: Mapping[tuple, DataSet]
    ) -> None:
        from repro.execution.runner import TestRunner

        self.runner = TestRunner(options=options)
        # The first task to ask is a hit.
        cache = self.runner.test_generator.dataset_cache
        for key, dataset in datasets.items():
            cache.put(key, dataset)

    def run(self, descriptor: TaskDescriptor) -> Any:
        """Execute one descriptor on the persistent runner."""
        from repro.execution.runner import TRACE_EXTRA_KEY

        cache = self.runner.test_generator.dataset_cache
        cache_before = cache.stats()
        with collector_paused():
            outcome = self.runner.run_task(
                descriptor.task,
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


class WorkerPool:
    """A reusable warm process pool.

    Owned by a :class:`~repro.execution.runner.TestRunner` and kept
    alive across ``run_many`` / sweep calls; the underlying
    :class:`ProcessPoolExecutor` is created lazily by the first batch,
    whose data sets ride along in the worker initializer with
    ``options``, its workers' runner options.  Shutdown (explicit or
    via garbage collection) releases the workers.
    """

    def __init__(self, options: RunnerOptions, max_workers: int) -> None:
        self.options = options
        self.max_workers = max_workers
        #: ``run_many`` batches served — the pool-reuse counter.
        self.batches = 0
        self._state: dict[str, Any] = {"pool": None}
        self._finalizer = weakref.finalize(
            self, _release_pool_state, self._state
        )

    @property
    def started(self) -> bool:
        """Whether the workers exist (a batch has created them)."""
        return self._state["pool"] is not None

    def run_batch(
        self,
        descriptors: list[TaskDescriptor],
        datasets: Mapping[tuple, DataSet],
    ) -> list[Any]:
        """Run one batch on the warm workers, results in submission order.

        ``datasets`` (cache key → data set) is put into every worker's
        cache when this batch creates the pool, and ignored otherwise.
        """
        pool = self._ensure_pool(datasets)
        self.batches += 1
        chunksize = compute_chunksize(len(descriptors), self.max_workers)
        return list(
            pool.map(_run_descriptor, descriptors, chunksize=chunksize)
        )

    def _ensure_pool(
        self, datasets: Mapping[tuple, DataSet]
    ) -> ProcessPoolExecutor:
        if self._state["pool"] is None:
            from concurrent.futures import ProcessPoolExecutor

            self._state["pool"] = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_initialize_worker,
                initargs=(self.options, datasets),
            )
        return self._state["pool"]

    def shutdown(self) -> None:
        """Release the workers (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(max_workers={self.max_workers}, "
            f"batches={self.batches})"
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
