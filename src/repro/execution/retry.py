"""Retry and timeout primitives for the fault-tolerant execution layer.

The surveyed frameworks (BigOP, the state-of-the-art survey) stress that
comparing systems fairly under stress requires *controlled* failure
behavior: a misbehaving system must not silently distort the batch, and
every recovery decision must be reproducible.  This module supplies the
two deterministic building blocks the runner applies uniformly on the
serial, thread, and process executor backends:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *seeded* jitter, so two runs of the same batch (on any backend) retry
  at exactly the same simulated moments;
* :func:`call_with_timeout` — a cooperative per-task wall-clock bound.

Neither primitive knows anything about tasks or engines; the runner
(:mod:`repro.execution.runner`) owns the attempt loop and the failure
records.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.core.errors import ExecutionError
from repro.observability import Tracer, current_tracer

R = TypeVar("R")

#: The failure policies :meth:`TestRunner.run_many` accepts.
ON_ERROR_POLICIES = ("abort", "continue")


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task wall-clock budget and was abandoned."""


#: Growth of the backoff from one failed attempt to the next.
BACKOFF_FACTOR = 2.0
#: Symmetric jitter fraction: a delay lands within ±10 % of its base.
JITTER = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded-retry policy for one batch of tasks.

    ``max_attempts`` counts every try including the first; a policy with
    ``max_attempts=1`` never retries.  Backoff before attempt *n* (the
    n-th being 2-based) grows from ``backoff_seconds`` by
    :data:`BACKOFF_FACTOR` and is clamped to ``max_backoff_seconds``.

    Jitter is *seeded*: the perturbation applied before a given attempt
    of a given task is a pure function of ``(task key, attempt)``, so
    serial, thread, and process backends sleep the same schedule and a
    rerun of the batch is bit-identical in its retry behavior.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.0
    max_backoff_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ExecutionError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ExecutionError(
                f"backoff_seconds must be non-negative, got "
                f"{self.backoff_seconds}"
            )

    def delay(self, failed_attempt: int, key: str = "") -> float:
        """Seconds to wait after the ``failed_attempt``-th try (1-based).

        Deterministic: the same ``(key, failed_attempt)`` always
        produces the same delay, in any thread or process.
        """
        if self.backoff_seconds <= 0:
            return 0.0
        base = self.backoff_seconds * BACKOFF_FACTOR ** (failed_attempt - 1)
        base = min(base, self.max_backoff_seconds)
        # random.Random seeds strings through SHA-512 (seeding version 2),
        # so the jitter stream is identical across processes regardless
        # of PYTHONHASHSEED.  The "0|" (a seed it once took) keeps every
        # delay the one it always was.
        rng = random.Random(f"0|{key}|{failed_attempt}")
        return base * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


def call_with_timeout(
    fn: Callable[[], R], timeout: float | None
) -> R:
    """Run ``fn`` bounded by ``timeout`` seconds of wall-clock time.

    Without a timeout this is a plain call.  With one, ``fn`` runs in a
    dedicated daemon thread; on expiry the thread is *abandoned* (pure
    Python cannot safely kill it) and :class:`TaskTimeoutError` is
    raised — the simulator's honest stand-in for killing a hung task.

    Tracing survives the thread hop: spans ``fn`` records in the helper
    thread are grafted back under the caller's current span, so a timed
    task renders the same tree as an untimed one.
    """
    if timeout is None:
        return fn()
    if timeout <= 0:
        raise ExecutionError(f"timeout must be positive, got {timeout}")
    tracer = current_tracer()
    local = Tracer() if tracer.enabled else None
    holder: dict[str, Any] = {}

    def target() -> None:
        try:
            if local is not None:
                with local.activate():
                    holder["result"] = fn()
            else:
                holder["result"] = fn()
        except BaseException as error:  # noqa: BLE001 — re-raised below
            holder["error"] = error

    thread = threading.Thread(
        target=target, daemon=True, name="repro-task-timeout"
    )
    thread.start()
    thread.join(timeout)
    if local is not None:
        # Adopt whatever the helper finished recording — even a timed-out
        # task keeps the spans of the work it completed.
        tracer.graft(local.roots())
    if thread.is_alive():
        raise TaskTimeoutError(
            f"task exceeded its {timeout:.3f}s budget and was abandoned"
        )
    if "error" in holder:
        raise holder["error"]
    return holder["result"]
