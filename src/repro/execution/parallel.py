"""In-process fan-out backends (Execution Layer, Figure 2).

The paper's execution layer fans prescribed tests out across systems and
scale points.  Who fans out: the runner (:mod:`repro.execution.runner`),
over one of three backends —

* ``serial`` — plain in-order iteration (the reference semantics),
* ``thread`` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`,
* ``process`` — the warm :class:`~repro.execution.workers.WorkerPool`,
  which is its own transport: the runner hands it every batch of more
  than one task, so the executor this module resolves for ``process``
  only ever sees a batch of one and runs it inline.

Every backend returns results **in submission order**, so callers merge
deterministically regardless of which task finishes first; a run fanned
out over any backend is metric-for-metric identical to the serial path
(modulo wall-clock timings, which are measurements, not answers).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, TypeVar

from repro.core.errors import ExecutionError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

T = TypeVar("T")
R = TypeVar("R")

#: The backend names accepted throughout the stack (RunnerOptions,
#: BenchmarkSpec, the CLI ``--executor`` flag).
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
    per-engine results) stays deterministic no matter which task
    finishes first.  Exceptions raised by a task propagate to the
    caller, as they would in a serial loop.
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


class ThreadExecutor(ParallelExecutor):
    """Thread-pool backend: shared memory, no pickling requirements.

    Best when tasks release the GIL (NumPy-heavy generation) or when the
    win comes from overlapping independent phases; always safe because
    the framework merges task-local state in submission order.  The pool
    is built with the first batch of more than one task.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ExecutionError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers or default_max_workers()
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            # One task gains nothing from a pool.
            return [fn(item) for item in items]
        if self._pool is None:
            # Imported with the first pool: a serial run never pays for it.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-exec"
            )
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


def resolve_executor(
    backend: str | None, max_workers: int | None = None
) -> ParallelExecutor:
    """The in-process executor for a backend name.

    ``None`` resolves to the serial backend, keeping callers that never
    asked for parallelism on the exact reference semantics.  So does
    ``process``: its batches travel through
    :class:`~repro.execution.workers.WorkerPool`, and the batch of one
    the runner keeps in-process runs inline.
    """
    if backend is not None and backend not in EXECUTOR_BACKENDS:
        raise ExecutionError(
            f"unknown executor backend {backend!r}; "
            f"available: {', '.join(EXECUTOR_BACKENDS)}"
        )
    if backend == "thread":
        return ThreadExecutor(max_workers)
    return SerialExecutor()
