"""Deterministic fault injection (the testable-failure substrate).

BigOP (Zhu et al., 2014) and the state-of-the-art survey both call for
benchmarking frameworks that stay meaningful when individual systems
misbehave.  Proving that requires misbehavior on demand: this module
wraps an engine so that executions fail, or stall, on a *seeded,
reproducible* schedule — raise-on-attempt, probabilistic raises, and
latency spikes — letting the test runner's retry and degradation paths
be exercised end to end on every executor backend.

Determinism is the design center.  Every injection decision is a pure
function of ``(spec.seed, task key, attempt, call)``:

* the *task key* and *attempt* come from the runner's retry loop via the
  thread-local :func:`fault_attempt` context (the process backend runs
  its retry loop inside the worker, so the context is always local);
* the *call* index counts injection points within one attempt (one per
  warmup/repeat execution).

Because the decision never depends on wall-clock time, thread
interleaving, or process identity, a faulty batch produces the same
failures, the same retry counts, and the same merged results on the
serial, thread, and process backends alike.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.core.errors import EngineError
from repro.engines.base import Engine


class InjectedFault(EngineError):
    """The failure a fault-injecting wrapper raises (retried like any other)."""


@dataclass(frozen=True)
class FaultDecision:
    """What one injection point should do."""

    fail: bool = False
    latency_seconds: float = 0.0


@dataclass(frozen=True)
class FaultSpec:
    """A seeded, reproducible failure schedule.

    * ``fail_attempts`` — attempt indices (0-based) that always raise;
      ``(0, 1)`` fails the first two tries and lets the third succeed,
      the canonical retry-path test.
    * ``fail_calls`` — call indices (0-based) that always raise: per
      attempt under the runner's retry loop, per wrapper instance when
      used standalone ("raise on the N-th call").
    * ``failure_rate`` — probability that any other injection point
      raises, decided by a seeded stream (deterministic per point).
    * ``latency_rate`` / ``latency_seconds`` — probability and size of
      an injected latency spike before the work runs.
    """

    seed: int = 0
    failure_rate: float = 0.0
    fail_attempts: tuple[int, ...] = ()
    fail_calls: tuple[int, ...] = ()
    latency_rate: float = 0.0
    latency_seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(
                f"failure_rate must be in [0, 1], got {self.failure_rate}"
            )
        if not 0.0 <= self.latency_rate <= 1.0:
            raise ValueError(
                f"latency_rate must be in [0, 1], got {self.latency_rate}"
            )
        if self.latency_seconds < 0:
            raise ValueError(
                f"latency_seconds must be non-negative, got "
                f"{self.latency_seconds}"
            )

    def decide(self, key: str, attempt: int, call: int) -> FaultDecision:
        """The (pure) decision for one injection point.

        ``random.Random`` seeds strings through SHA-512, so the decision
        stream is identical in every thread and process regardless of
        PYTHONHASHSEED.
        """
        fail = attempt in self.fail_attempts or call in self.fail_calls
        rng = random.Random(f"{self.seed}|{key}|{attempt}|{call}")
        if not fail and self.failure_rate:
            fail = rng.random() < self.failure_rate
        latency = 0.0
        if self.latency_rate and self.latency_seconds:
            if rng.random() < self.latency_rate:
                latency = self.latency_seconds
        return FaultDecision(fail=fail, latency_seconds=latency)


# ---------------------------------------------------------------------------
# The attempt context (set by the runner's retry loop)
# ---------------------------------------------------------------------------


class _AttemptState:
    """Task key + attempt index + per-attempt injection-call counter."""

    __slots__ = ("key", "attempt", "calls")

    def __init__(self, key: str, attempt: int) -> None:
        self.key = key
        self.attempt = attempt
        self.calls = 0

    def next_call(self) -> int:
        call = self.calls
        self.calls += 1
        return call


_context = threading.local()


@contextmanager
def fault_attempt(key: str, attempt: int) -> Iterator[None]:
    """Scope one retry attempt so injectors can key their decisions.

    The runner wraps every task attempt in this context *inside* the
    thread that executes it; injected wrappers read it back through
    :func:`current_fault_attempt`.  Nesting restores the outer state.
    """
    previous = getattr(_context, "state", None)
    _context.state = _AttemptState(key, attempt)
    try:
        yield
    finally:
        _context.state = previous


def current_fault_attempt() -> _AttemptState | None:
    """The attempt state of the innermost :func:`fault_attempt`, if any."""
    return getattr(_context, "state", None)


# ---------------------------------------------------------------------------
# The injector and its wrappers
# ---------------------------------------------------------------------------


class FaultInjector:
    """Applies a :class:`FaultSpec` at each injection point.

    Outside a retry context the injector keys decisions on its own
    monotonically increasing call counter (standalone "N-th call"
    semantics); inside one, on the runner-provided task key and attempt.
    """

    def __init__(self, spec: FaultSpec, default_key: str = "") -> None:
        self.spec = spec
        self.default_key = default_key
        self._calls = 0
        self.injected_failures = 0
        self.injected_latency_seconds = 0.0

    def inject(self, detail: str = "") -> float:
        """Raise or stall according to the spec (no-op otherwise).

        Returns the seconds stalled, so callers timing around the
        injection point can account for it (a self-timed workload would
        otherwise exclude the stall from its measured duration).
        """
        state = current_fault_attempt()
        if state is not None:
            key, attempt, call = state.key, state.attempt, state.next_call()
        else:
            key, attempt = self.default_key, 0
            call = self._calls
            self._calls += 1
        decision = self.spec.decide(key, attempt, call)
        if decision.latency_seconds > 0:
            self.injected_latency_seconds += decision.latency_seconds
            time.sleep(decision.latency_seconds)
        if decision.fail:
            self.injected_failures += 1
            where = f" in {detail}" if detail else ""
            raise InjectedFault(
                f"{self.spec.message}{where} "
                f"(key={key!r}, attempt={attempt}, call={call})"
            )
        return decision.latency_seconds


class FaultyEngine(Engine):
    """An engine proxy that injects faults before every workload run.

    Every attribute the proxy does not define (the inner engine's
    ``name`` and ``software_stack``, its counters, engine-specific
    methods) delegates to the wrapped instance, so workload dispatch
    (``run_<engine-name>``) and format conversion behave exactly as with
    the bare engine.  The injection point is
    :meth:`inject_fault`, which :meth:`repro.workloads.base.Workload.run`
    calls on any engine that defines it — modeling a system that is
    intermittently unavailable or slow *before* useful work starts.
    """

    def __init__(self, inner: Engine, spec: FaultSpec) -> None:
        # No super().__init__(): counters must stay the inner engine's
        # (workload implementations read them through the proxy).
        self._inner = inner
        self._injector = FaultInjector(spec, default_key=inner.name)

    def inject_fault(self, detail: str = "") -> float:
        return self._injector.inject(detail or f"engine {self._inner.name!r}")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    # Container protocol: dunder lookup bypasses __getattr__ (it happens
    # on the type), so the ones workloads actually use on engines —
    # e.g. ``len(store)`` for record counts — need explicit forwarding.
    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self) -> Any:
        return iter(self._inner)

    def __contains__(self, item: Any) -> bool:
        return item in self._inner

    def __getitem__(self, item: Any) -> Any:
        return self._inner[item]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultyEngine({self._inner!r}, {self._injector.spec!r})"
