"""The load runner (load generation, piece 4 of 4).

"Hold X req/s for T seconds and report the latency distribution."  The
:class:`LoadRunner` drives a :class:`~repro.loadgen.targets.LoadTarget`
under a :class:`LoadPlan` — an open-loop arrival schedule (constant /
poisson / bursty / diurnal) or a closed-loop session population with
think times — on one of two clocks:

* **virtual** (default): a discrete-event simulation of a bounded FIFO
  queue in front of ``concurrency`` servers.  Service times come from
  the target's seeded model (fully deterministic — the SLO verdict
  contract) or, for executing targets, from really running the request
  and folding the measured wall time into the virtual timeline;
* **real**: arrivals are paced with actual sleeps (injectable for
  tests) and dispatched to a thread pool, so a live system — the
  service orchestrator, say — feels genuine concurrent pressure.

Latency is measured from the *intended* arrival time, so queueing delay
is included and coordinated omission cannot hide an overload.  Requests
the bounded queue (or the target's own admission control) refuses are
**shed**, counted separately from errors, and excluded from the latency
samples.  The per-run evidence lands in a :class:`LoadReport`, which
serializes through the existing
:class:`~repro.core.results.MetricStats` p50/p95/p99 machinery into a
:class:`~repro.core.results.RunResult` — and from there into the run
store as its own recorded series, comparable and gateable like every
other benchmark.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.errors import LoadGenError, RequestShed
from repro.core.results import MetricStats, RunResult
from repro.datagen.base import mix_seed
from repro.loadgen.arrivals import ARRIVAL_KINDS, arrival_schedule
from repro.loadgen.slo import SLOPolicy, SLOVerdict
from repro.loadgen.targets import LoadTarget
from repro.observability import NULL_TRACER, Tracer
from repro.service.queue import AdmissionError

#: The two clocks a plan can run on.
CLOCK_KINDS = ("virtual", "real")

#: Seed-stream tags keeping service and think draws independent of the
#: arrival schedule (and of each other) under one user seed.
_SERVICE_STREAM = 0x5E21
_THINK_STREAM = 0x7417


@dataclass
class LoadPlan:
    """What load to offer: shape, rate, duration, and loop model.

    ``sessions > 0`` selects the closed-loop model (``sessions``
    concurrent users, each issuing think-pause-issue); otherwise the
    open-loop ``arrival`` schedule at ``rate`` req/s drives the run.
    """

    arrival: str = "poisson"
    rate: float = 100.0
    duration: float = 10.0
    sessions: int = 0
    think_time: float = 0.0
    seed: int = 0
    #: Extra arrival-process options (burst_factor, period, amplitude).
    arrival_options: dict[str, Any] = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return "closed" if self.sessions > 0 else "open"

    def validate(self) -> None:
        if self.mode == "open" and self.arrival not in ARRIVAL_KINDS:
            raise LoadGenError(
                f"unknown arrival kind {self.arrival!r}; available: "
                f"{', '.join(ARRIVAL_KINDS)}"
            )
        # Chained comparisons: NaN and infinity fail them too.
        if not 0 < self.rate < math.inf:
            raise LoadGenError(
                f"rate must be positive and finite, got {self.rate}"
            )
        if not 0 < self.duration < math.inf:
            raise LoadGenError(
                f"duration must be positive and finite, got {self.duration}"
            )
        if self.sessions < 0:
            raise LoadGenError(
                f"sessions must be non-negative, got {self.sessions}"
            )
        if not 0 <= self.think_time < math.inf:
            raise LoadGenError(
                "think_time must be non-negative and finite, got "
                f"{self.think_time}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "arrival": self.arrival,
            "rate": self.rate,
            "duration": self.duration,
            "sessions": self.sessions,
            "think_time": self.think_time,
            "seed": self.seed,
            "arrival_options": dict(self.arrival_options),
        }


@dataclass
class LoadReport:
    """Everything one load run measured."""

    plan: LoadPlan
    target_name: str
    clock: str
    concurrency: int
    queue_capacity: int
    offered: int = 0
    completed: int = 0
    shed: int = 0
    errors: int = 0
    latencies: list[float] = field(default_factory=list)
    queue_depth_samples: list[int] = field(default_factory=list)
    #: The measurement window: the virtual (or wall) time from the first
    #: arrival to the last completion, never less than the plan duration.
    elapsed_seconds: float = 0.0
    verdict: SLOVerdict | None = None
    record_id: str | None = None

    @property
    def offered_rate(self) -> float:
        """Requests the schedule actually asked for, per plan second."""
        return self.offered / self.plan.duration

    @property
    def achieved_rate(self) -> float:
        """Completions per second over the full measurement window."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def error_fraction(self) -> float:
        return self.errors / self.offered if self.offered else 0.0

    @property
    def queue_depth_max(self) -> int:
        return max(self.queue_depth_samples, default=0)

    def latency_stats(self) -> MetricStats:
        """Per-request latencies through the p50/p95/p99 machinery."""
        if not self.latencies:
            raise LoadGenError("no completed requests: no latencies")
        return MetricStats("latency", list(self.latencies))

    def as_run_result(self) -> RunResult:
        """The run-store shape: one RunResult, latency samples intact."""
        metrics = {
            "achieved_rate": MetricStats(
                "achieved_rate", [self.achieved_rate]
            ),
            "offered_rate": MetricStats("offered_rate", [self.offered_rate]),
            "shed_fraction": MetricStats(
                "shed_fraction", [self.shed_fraction]
            ),
            "error_fraction": MetricStats(
                "error_fraction", [self.error_fraction]
            ),
            "queue_depth_max": MetricStats(
                "queue_depth_max", [float(self.queue_depth_max)]
            ),
        }
        if self.latencies:
            metrics["latency"] = self.latency_stats()
        extra: dict[str, Any] = {
            "load_plan": self.plan.as_dict(),
            "clock": self.clock,
            "target": self.target_name,
            "concurrency": self.concurrency,
            "queue_capacity": self.queue_capacity,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.verdict is not None:
            extra["slo_verdict"] = self.verdict.as_dict()
        return RunResult(
            test_name=f"load:{self.plan.mode}-{self.plan.arrival}"
            if self.plan.mode == "open"
            else "load:closed",
            workload=self.target_name,
            engine=f"loadgen-{self.clock}",
            repeats=1,
            metrics=metrics,
            extra=extra,
        )

    def render(self) -> str:
        """The human-readable report (the ``load`` verb's text output)."""
        shape = (
            f"{self.plan.sessions} sessions (closed loop)"
            if self.plan.mode == "closed"
            else f"{self.plan.arrival} @ {self.plan.rate:g} req/s"
        )
        lines = [
            f"load: {shape} for {self.plan.duration:g}s against "
            f"{self.target_name} [{self.clock} clock, "
            f"concurrency {self.concurrency}, seed {self.plan.seed}]",
            f"  offered {self.offered} ({self.offered_rate:.4g}/s)  "
            f"completed {self.completed} ({self.achieved_rate:.4g}/s)  "
            f"shed {self.shed} ({self.shed_fraction:.1%})  "
            f"errors {self.errors} ({self.error_fraction:.1%})",
        ]
        if self.latencies:
            stats = self.latency_stats()
            lines.append(
                f"  latency p50 {stats.p50 * 1e3:.3g}ms  "
                f"p95 {stats.p95 * 1e3:.3g}ms  "
                f"p99 {stats.p99 * 1e3:.3g}ms  "
                f"max {stats.maximum * 1e3:.3g}ms  "
                f"queue depth max {self.queue_depth_max}"
            )
        else:
            lines.append("  no completed requests (no latency samples)")
        if self.verdict is not None:
            lines.append(f"SLO: {'PASS' if self.verdict.passed else 'FAIL'}")
            lines.extend(
                f"  {check.describe()}" for check in self.verdict.checks
            )
        if self.record_id is not None:
            lines.append(f"recorded {self.record_id}")
        return "\n".join(lines)

    def summary(self) -> dict[str, Any]:
        """A flat JSON-friendly digest (CLI ``--json``, benchmarks)."""
        payload: dict[str, Any] = {
            "mode": self.plan.mode,
            "arrival": self.plan.arrival,
            "target": self.target_name,
            "clock": self.clock,
            "target_rate": self.plan.rate,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "shed_fraction": self.shed_fraction,
            "error_fraction": self.error_fraction,
            "queue_depth_max": self.queue_depth_max,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.latencies:
            stats = self.latency_stats()
            payload["latency"] = {
                "mean": stats.mean,
                "p50": stats.p50,
                "p95": stats.p95,
                "p99": stats.p99,
                "max": stats.maximum,
                "n": len(stats.samples),
            }
        if self.verdict is not None:
            payload["slo"] = self.verdict.as_dict()
        if self.record_id is not None:
            payload["record_id"] = self.record_id
        return payload


def load_fingerprint(
    plan: LoadPlan,
    target_name: str,
    *,
    clock: str,
    concurrency: int,
    queue_capacity: int,
) -> dict[str, Any]:
    """The spec-fingerprint analogue for load runs.

    Everything that changes *what load is offered* belongs here, so runs
    of the same plan against the same target group into one comparable
    series in the run store (the SLO policy judges measurements, it does
    not change them — it stays out).
    """
    return {
        "kind": "loadgen",
        "target": target_name,
        "clock": clock,
        "concurrency": concurrency,
        "queue_capacity": queue_capacity,
        **plan.as_dict(),
    }


class _VirtualQueue:
    """A FIFO queue in front of ``concurrency`` servers on the virtual
    clock: the bookkeeping the open and closed loops share.

    Each loop keeps its own request source and door; this keeps the free
    servers, the start times still waiting (for the depth a request
    finds), and the measurement window, all written into ``report``.
    """

    def __init__(
        self,
        runner: LoadRunner,
        report: LoadReport,
        rng: np.random.Generator,
    ) -> None:
        self._serve = runner._serve
        self._rng = rng
        self._report = report
        # When each server frees up: a heap (all-equal is already one).
        self._free = [0.0] * runner.concurrency
        # FIFO + earliest-free-server makes start times nondecreasing,
        # so the waiting set is a deque drained from the front.
        self._waiting_starts: deque[float] = deque()
        self._last_completion = 0.0

    def arrive(self, at: float) -> int:
        """Offer one request at ``at``; returns the queue depth it finds."""
        self._report.offered += 1
        waiting = self._waiting_starts
        while waiting and waiting[0] <= at:
            waiting.popleft()
        depth = len(waiting)
        self._report.queue_depth_samples.append(depth)
        return depth

    def busy(self, at: float) -> bool:
        """Whether every server is still working at ``at``."""
        return self._free[0] > at

    def serve(self, at: float, request_index: int) -> float | None:
        """Serve a request that arrived at ``at``: its completion time,
        or None when the target shed it or it failed."""
        service, disposition = self._serve(request_index, self._rng)
        report = self._report
        if disposition == "shed":
            report.shed += 1
            return None
        if disposition == "error":
            report.errors += 1
            return None
        free_at = heapq.heappop(self._free)
        start = max(at, free_at)
        completion = start + service
        heapq.heappush(self._free, completion)
        self._waiting_starts.append(start)
        report.completed += 1
        report.latencies.append(completion - at)
        self._last_completion = max(self._last_completion, completion)
        return completion

    def close(self, duration: float) -> None:
        """The window: first arrival to last completion, at least
        ``duration``."""
        self._report.elapsed_seconds = max(duration, self._last_completion)


class LoadRunner:
    """Drives one target under one plan; measures; judges; records."""

    def __init__(
        self,
        target: LoadTarget,
        *,
        clock: str = "virtual",
        concurrency: int = 1,
        queue_capacity: int = 64,
        tracer: Tracer | None = None,
        sleep: Callable[[float], None] = time.sleep,
        time_source: Callable[[], float] = time.monotonic,
    ) -> None:
        if clock not in CLOCK_KINDS:
            raise LoadGenError(
                f"unknown clock {clock!r}; available: "
                f"{', '.join(CLOCK_KINDS)}"
            )
        if concurrency <= 0:
            raise LoadGenError(
                f"concurrency must be positive, got {concurrency}"
            )
        if queue_capacity < 0:
            raise LoadGenError(
                f"queue_capacity must be non-negative, got {queue_capacity}"
            )
        self.target = target
        self.clock = clock
        self.concurrency = concurrency
        self.queue_capacity = queue_capacity
        self.tracer = tracer or NULL_TRACER
        self._sleep = sleep
        self._time = time_source

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self,
        plan: LoadPlan,
        *,
        slo: SLOPolicy | None = None,
        store: Any = None,
    ) -> LoadReport:
        """Execute the plan; returns the report (verdict attached when a
        policy is given, recorded into ``store`` when one is given)."""
        plan.validate()
        report = LoadReport(
            plan=plan,
            target_name=self.target.name,
            clock=self.clock,
            concurrency=self.concurrency,
            queue_capacity=self.queue_capacity,
        )
        self.target.setup()
        try:
            report.target_name = self.target.name  # setup may refine it
            with self.tracer.activate():
                with self.tracer.span(
                    "load",
                    mode=plan.mode,
                    arrival=plan.arrival,
                    rate=plan.rate,
                    duration=plan.duration,
                    clock=self.clock,
                    target=report.target_name,
                ) as span:
                    if plan.mode == "closed":
                        self._run_closed(plan, report)
                    elif self.clock == "virtual":
                        self._run_open_virtual(plan, report)
                    else:
                        self._run_open_real(plan, report)
                    span.incr("load.offered", report.offered)
                    span.incr("load.completed", report.completed)
                    span.incr("load.shed", report.shed)
                    span.incr("load.errors", report.errors)
                    span.record_max(
                        "load.queue_depth", report.queue_depth_max
                    )
        finally:
            self.target.teardown()
        if slo is not None:
            report.verdict = slo.evaluate(report)
        if store is not None:
            self._record(report, store)
        return report

    # ------------------------------------------------------------------
    # Virtual clock: discrete-event simulation
    # ------------------------------------------------------------------

    def _service_rng(self, plan: LoadPlan) -> np.random.Generator:
        return np.random.default_rng(mix_seed(plan.seed, _SERVICE_STREAM))

    def _serve(
        self,
        request_index: int,
        rng: np.random.Generator,
    ) -> tuple[float | None, str]:
        """One request's service seconds, or its failure disposition.

        Returns ``(service_seconds, "ok")``, ``(None, "shed")``, or
        ``(None, "error")``.  Executing targets really run here; their
        measured wall time becomes the virtual service time.
        """
        simulated = self.target.service_time(request_index, rng)
        if simulated is not None:
            return simulated, "ok"
        started = time.perf_counter()
        try:
            self.target.execute(request_index)
        except (RequestShed, AdmissionError):
            return None, "shed"
        except Exception:  # noqa: BLE001 — per-request fault isolation
            return None, "error"
        return time.perf_counter() - started, "ok"

    def _run_open_virtual(self, plan: LoadPlan, report: LoadReport) -> None:
        arrivals = arrival_schedule(
            plan.arrival,
            plan.rate,
            plan.duration,
            plan.seed,
            **plan.arrival_options,
        )
        queue = _VirtualQueue(self, report, self._service_rng(plan))
        for index, arrived in enumerate(arrivals):
            depth = queue.arrive(arrived)
            # Shed only when every waiting slot is taken AND no server
            # is idle: queue_capacity=0 still serves what a free server
            # can take immediately.
            if depth >= self.queue_capacity and queue.busy(arrived):
                report.shed += 1
                continue
            queue.serve(arrived, index)
        queue.close(plan.duration)

    def _run_closed(self, plan: LoadPlan, report: LoadReport) -> None:
        """Closed loop: N sessions, think → issue → wait → think …

        Runs as a virtual-clock simulation regardless of the configured
        clock — a closed population self-paces, so there is nothing a
        wall clock would add except nondeterminism.  Nothing is shed at
        the door: a session waits for its answer before it issues again.
        """
        queue = _VirtualQueue(self, report, self._service_rng(plan))
        think_rng = np.random.default_rng(
            mix_seed(plan.seed, _THINK_STREAM)
        )

        def think() -> float:
            if plan.think_time <= 0:
                return 0.0
            return float(think_rng.exponential(plan.think_time))

        # (next issue time, session id) — session id breaks ties
        # deterministically.
        sessions = [(think(), index) for index in range(plan.sessions)]
        heapq.heapify(sessions)
        index = 0
        while sessions:
            issued_at, session = heapq.heappop(sessions)
            if issued_at >= plan.duration:
                continue
            queue.arrive(issued_at)
            completion = queue.serve(issued_at, index)
            index += 1
            if completion is None:
                next_issue = issued_at + max(think(), 1e-6)
            else:
                next_issue = completion + think()
            heapq.heappush(sessions, (next_issue, session))
        queue.close(plan.duration)

    # ------------------------------------------------------------------
    # Real clock: paced dispatch onto a worker pool
    # ------------------------------------------------------------------

    def _run_open_real(self, plan: LoadPlan, report: LoadReport) -> None:
        arrivals = arrival_schedule(
            plan.arrival,
            plan.rate,
            plan.duration,
            plan.seed,
            **plan.arrival_options,
        )
        rng = self._service_rng(plan)
        lock = threading.Lock()
        in_flight = 0
        epoch = self._time()

        def worker(request_index: int, intended: float) -> None:
            nonlocal in_flight
            disposition = "ok"
            try:
                simulated = self.target.service_time(request_index, rng)
                if simulated is not None:
                    self._sleep(simulated)
                else:
                    self.target.execute(request_index)
            except (RequestShed, AdmissionError):
                disposition = "shed"
            except Exception:  # noqa: BLE001 — per-request isolation
                disposition = "error"
            completed_at = self._time() - epoch
            with lock:
                in_flight -= 1
                if disposition == "ok":
                    report.completed += 1
                    # Latency from the *intended* arrival: queueing
                    # delay counts, coordinated omission does not hide.
                    report.latencies.append(
                        max(0.0, completed_at - intended)
                    )
                elif disposition == "shed":
                    report.shed += 1
                else:
                    report.errors += 1

        with ThreadPoolExecutor(max_workers=self.concurrency) as pool:
            for index, arrived in enumerate(arrivals):
                now = self._time() - epoch
                if arrived > now:
                    self._sleep(arrived - now)
                with lock:
                    report.offered += 1
                    depth = max(0, in_flight - self.concurrency)
                    report.queue_depth_samples.append(depth)
                    # Workers + waiting slots all taken → shed (the
                    # same door rule as the virtual queue).
                    if in_flight >= self.concurrency + self.queue_capacity:
                        report.shed += 1
                        continue
                    in_flight += 1
                pool.submit(worker, index, arrived)
        report.elapsed_seconds = max(
            plan.duration, self._time() - epoch
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _record(self, report: LoadReport, store: Any) -> None:
        record = store.record_outcome(
            report.as_run_result(),
            load_fingerprint(
                report.plan,
                report.target_name,
                clock=self.clock,
                concurrency=self.concurrency,
                queue_capacity=self.queue_capacity,
            ),
        )
        report.record_id = record.record_id
