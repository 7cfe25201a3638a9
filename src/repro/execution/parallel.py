"""Pluggable parallel execution backends (Execution Layer, Figure 2).

The paper's execution layer fans prescribed tests out across systems and
scale points, and its data-generation process (Figure 3) explicitly calls
for parallelisable generation.  This module supplies the one fan-out
substrate the whole stack shares: a :class:`ParallelExecutor` with three
interchangeable backends —

* ``serial`` — plain in-order iteration (the reference semantics),
* ``thread`` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`,
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor` for
  CPU-bound fan-out (tasks and results must be picklable).

Every backend returns results **in submission order**, so callers merge
deterministically regardless of which task finishes first; a run fanned
out over any backend is metric-for-metric identical to the serial path
(modulo wall-clock timings, which are measurements, not answers).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any, TypeVar

from repro.core.errors import ExecutionError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

#: The backend names accepted throughout the stack (RunnerOptions,
#: BenchmarkSpec, the CLI ``--executor`` flag, engine configurations).
EXECUTOR_BACKENDS = ("serial", "thread", "process")

#: Environment variable overriding the default backend everywhere a
#: backend is not chosen explicitly.  CI uses it to run the whole test
#: suite's default-configured runners on the thread or process backend,
#: so backend-specific regressions cannot hide behind the serial default.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def default_backend() -> str:
    """The backend used when none is configured (env-overridable)."""
    return os.environ.get(EXECUTOR_ENV_VAR, "serial")


def default_max_workers() -> int:
    """Worker count when none is configured: one per CPU, at least one."""
    return max(1, os.cpu_count() or 1)


#: Target task submissions per worker per batch for chunked submission:
#: small enough to keep workers load-balanced, large enough to amortize
#: the per-submission pipe round-trip.
SUBMISSIONS_PER_WORKER = 4


def compute_chunksize(
    num_items: int, max_workers: int, per_worker: int = SUBMISSIONS_PER_WORKER
) -> int:
    """Tasks per pool submission for a batch of ``num_items``.

    ``chunksize=1`` (the stdlib default) costs one pipe round-trip per
    task; for sweeps of many cheap tasks that IPC dominates the runtime.
    Aim for ``per_worker`` submissions per worker so a batch still
    load-balances across the pool while round-trips stay bounded.
    """
    if num_items <= 0:
        return 1
    slots = max(1, max_workers) * per_worker
    return max(1, -(-num_items // slots))


class ParallelExecutor(ABC):
    """Maps a function over items, returning results in submission order.

    Implementations may run tasks concurrently, but the result list is
    always ordered like the input, so downstream merging (sweep points,
    per-engine results, map/reduce task outputs) stays deterministic no
    matter which task finishes first.  Exceptions raised by a task
    propagate to the caller, as they would in a serial loop.
    """

    name: str = "executor"

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results in submission order."""

    def shutdown(self) -> None:
        """Release pooled workers (no-op for pool-less backends)."""

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(ParallelExecutor):
    """The reference backend: a plain in-order loop, no concurrency."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class _PoolBackedExecutor(ParallelExecutor):
    """Shared plumbing for the pool-backed backends (lazy pool creation)."""

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ExecutionError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers or default_max_workers()
        self._pool: Any = None

    def _make_pool(self) -> Any:
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            # One task gains nothing from a pool (and, for the process
            # backend, would pay pickling for no concurrency).
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = self._make_pool()
        return list(
            self._pool.map(fn, items, chunksize=self._chunksize(len(items)))
        )

    def _chunksize(self, num_items: int) -> int:
        """Tasks per pool submission; backends override to batch."""
        return 1

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolBackedExecutor):
    """Thread-pool backend: shared memory, no pickling requirements.

    Best when tasks release the GIL (NumPy-heavy generation) or when the
    win comes from overlapping independent phases; always safe because
    the framework merges task-local state in submission order.
    """

    name = "thread"

    def _make_pool(self) -> ThreadPoolExecutor:
        # Imported with the first pool: a serial run never pays for it.
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-exec"
        )


class ProcessExecutor(_PoolBackedExecutor):
    """Process-pool backend for CPU-bound fan-out.

    Tasks and results cross a process boundary, so both — and the
    mapped function — must be picklable.  Engine-internal fan-out
    (MapReduce phases, partitioned generation) uses this; the runner's
    own process transport is the warm
    :class:`~repro.execution.workers.WorkerPool` instead.
    """

    name = "process"

    def _make_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _chunksize(self, num_items: int) -> int:
        # One pipe round-trip per task would dominate cheap tasks;
        # batch submissions so IPC amortizes across the batch.
        return compute_chunksize(num_items, self.max_workers)


_BACKEND_CLASSES: dict[str, type[ParallelExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(
    spec: "ParallelExecutor | str | None", max_workers: int | None = None
) -> ParallelExecutor:
    """Turn a backend name (or an existing executor) into an executor.

    ``None`` resolves to the serial backend, keeping callers that never
    asked for parallelism on the exact reference semantics.

    An already-constructed executor is returned as-is — but passing
    ``max_workers`` alongside one is a contradiction (the pool size was
    fixed at construction), so a conflicting count raises instead of
    being silently ignored.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, ParallelExecutor):
        configured = getattr(spec, "max_workers", None)
        if (
            max_workers is not None
            and configured is not None
            and configured != max_workers
        ):
            raise ExecutionError(
                f"max_workers={max_workers} conflicts with the provided "
                f"{type(spec).__name__} (max_workers={configured}); pass a "
                "backend name to build a pool of that size, or construct "
                "the executor with the desired worker count"
            )
        return spec
    backend = _BACKEND_CLASSES.get(spec)
    if backend is None:
        raise ExecutionError(
            f"unknown executor backend {spec!r}; "
            f"available: {', '.join(EXECUTOR_BACKENDS)}"
        )
    if backend is SerialExecutor:
        return SerialExecutor()
    return backend(max_workers)
