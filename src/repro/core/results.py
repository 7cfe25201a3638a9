"""Run results and the result analyzer (Execution layer, Figure 2).

A :class:`RunResult` aggregates the repeated executions of one prescribed
test into metric statistics; :class:`ResultAnalyzer` compares results
across engines or configurations — the paper's example use: "benchmarking
results can identify the performance bottlenecks in big data systems".

Fault tolerance adds a second outcome type: a :class:`TaskFailure` is
the captured record of a task that exhausted its retry budget under the
``on_error="continue"`` policy — the batch keeps its completed results
and reports *what* failed instead of discarding everything.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import MetricError
from repro.core.metrics import MetricSuite


def _interpolate(ordered: list[float], q: float) -> float:
    """The q-th percentile of a non-empty sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class MetricStats:
    """Across-repeat statistics of one metric."""

    name: str
    samples: list[float]
    #: ``(the samples it was computed from, their stdev)``.
    _stdev: tuple[list[float], float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0.0 below two samples).

        ``statistics.stdev`` is exact (it sums ``Fraction`` s) and costs
        several times the other six summaries of a short series together,
        so it is computed once for the samples as they are, not once
        per reader (the store, the report table, ``--json``).
        """
        if len(self.samples) < 2:
            return 0.0
        known = self._stdev
        if known is None or known[0] != self.samples:
            known = self._stdev = (
                list(self.samples), statistics.stdev(self.samples)
            )
        return known[1]

    def percentile(self, q: float) -> float:
        """The q-th percentile by linear interpolation between ranks.

        Small-sample behavior is deliberate: one sample *is* every
        percentile, and with n samples the estimate interpolates
        between the two closest order statistics rather than snapping
        to an extreme — so p99 of a 3-repeat run is near the max, not a
        fabricated tail.
        """
        if not 0 <= q <= 100:
            raise MetricError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            raise MetricError(f"metric {self.name!r} has no samples")
        return _interpolate(sorted(self.samples), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def as_dict(self) -> dict[str, Any]:
        """Full serialization, samples included (round-trippable)."""
        ordered = sorted(self.samples)
        return {
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "stdev": self.stdev,
            "p50": _interpolate(ordered, 50),
            "p95": _interpolate(ordered, 95),
            "p99": _interpolate(ordered, 99),
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict[str, Any]) -> "MetricStats":
        samples = payload.get("samples")
        if not samples:
            # A summary-only payload (no raw samples): the mean is the
            # best single reconstruction available.
            samples = [payload["mean"]]
        return cls(name, [float(sample) for sample in samples])


@dataclass
class RunResult:
    """The aggregated outcome of one prescribed test across repeats."""

    test_name: str
    workload: str
    engine: str
    repeats: int
    metrics: dict[str, MetricStats] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    #: Outcome status.  A result built by the runner is ``"ok"``, but
    #: the field is a real (serializable, round-trippable) field so a
    #: stored record deserialized through :meth:`from_dict` keeps
    #: whatever status it was recorded with — a failed-then-merged
    #: batch must not silently come back as ok.
    status: str = field(default="ok", repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def metric(self, name: str) -> MetricStats:
        try:
            return self.metrics[name]
        except KeyError:
            raise MetricError(
                f"run {self.test_name!r} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None

    def mean(self, name: str) -> float:
        return self.metric(name).mean

    def as_dict(self) -> dict[str, Any]:
        """The JSON-friendly, round-trippable form the run store keeps.

        Metric payloads include the raw samples (not just summary
        statistics) so a stored run can later be compared with full
        statistical power; ``status`` is serialized explicitly so the
        round trip preserves it (see :meth:`from_dict`).
        """
        payload: dict[str, Any] = {
            "test": self.test_name,
            "workload": self.workload,
            "engine": self.engine,
            "repeats": self.repeats,
            "status": self.status,
            "metrics": {
                name: stats.as_dict() for name, stats in self.metrics.items()
            },
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunResult":
        return cls(
            test_name=payload["test"],
            workload=payload.get("workload", ""),
            engine=payload.get("engine", ""),
            repeats=int(payload.get("repeats", 1)),
            metrics={
                name: MetricStats.from_dict(name, stats)
                for name, stats in payload.get("metrics", {}).items()
            },
            extra=dict(payload.get("extra", {})),
            status=payload.get("status", "ok"),
        )

    @classmethod
    def from_workload_results(
        cls,
        test_name: str,
        workload_results: list,
        suite: MetricSuite | None = None,
    ) -> "RunResult":
        """Compute metrics for each repeat and collect the statistics."""
        if not workload_results:
            raise MetricError("cannot build a RunResult from zero runs")
        suite = suite or MetricSuite.standard()
        per_metric: dict[str, list[float]] = {}
        for workload_result in workload_results:
            values = suite.compute_all(workload_result.evidence())
            for name, value in values.items():
                per_metric.setdefault(name, []).append(value)
        first = workload_results[0]
        return cls(
            test_name=test_name,
            workload=first.workload,
            engine=first.engine,
            repeats=len(workload_results),
            metrics={
                name: MetricStats(name, samples)
                for name, samples in per_metric.items()
            },
            extra=dict(first.extra),
        )


@dataclass
class TaskFailure:
    """The captured record of one task that failed every attempt.

    Produced by the runner under ``on_error="continue"`` in place of a
    :class:`RunResult`, holding everything a post-mortem needs: the
    exception type and message, a compact traceback summary, and how
    many attempts the retry policy spent.  Merged in submission order
    alongside successful results, so the batch's shape is preserved.
    """

    test_name: str
    workload: str
    engine: str
    error_type: str
    error_message: str
    traceback_summary: str = ""
    attempts: int = 1
    extra: dict[str, Any] = field(default_factory=dict)

    #: Failed outcomes are always "failed" (see :class:`RunResult`).
    status: str = field(default="failed", init=False, repr=False)

    @property
    def ok(self) -> bool:
        return False

    @property
    def error(self) -> str:
        """One-line ``Type: message`` form for tables and logs."""
        if self.error_message:
            return f"{self.error_type}: {self.error_message}"
        return self.error_type

    def as_dict(self) -> dict[str, Any]:
        """The JSON-friendly form reports embed."""
        payload: dict[str, Any] = {
            "test": self.test_name,
            "workload": self.workload,
            "engine": self.engine,
            "status": self.status,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }
        if self.traceback_summary:
            payload["traceback"] = self.traceback_summary
        if self.extra:
            payload["extra"] = self.extra
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TaskFailure":
        """Rebuild a captured failure from its :meth:`as_dict` form."""
        return cls(
            test_name=payload["test"],
            workload=payload.get("workload", ""),
            engine=payload.get("engine", ""),
            error_type=payload.get("error_type", "Exception"),
            error_message=payload.get("error_message", ""),
            traceback_summary=payload.get("traceback", ""),
            attempts=int(payload.get("attempts", 1)),
            extra=dict(payload.get("extra", {})),
        )

    @classmethod
    def from_exception(
        cls,
        test_name: str,
        workload: str,
        engine: str,
        error: BaseException,
        attempts: int = 1,
        max_frames: int = 3,
    ) -> "TaskFailure":
        """Capture an exception (innermost ``max_frames`` frames only)."""
        frames = traceback.extract_tb(error.__traceback__)[-max_frames:]
        summary = "; ".join(
            f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} "
            f"in {frame.name}"
            for frame in frames
        )
        return cls(
            test_name=test_name,
            workload=workload,
            engine=engine,
            error_type=type(error).__name__,
            error_message=str(error),
            traceback_summary=summary,
            attempts=attempts,
        )


#: What fan-out entry points return per task: a result or a captured
#: failure (only under ``on_error="continue"``), in submission order.
RunOutcome = "RunResult | TaskFailure"


def outcome_from_dict(payload: dict[str, Any]) -> "RunResult | TaskFailure":
    """Rebuild either outcome type from its serialized form.

    Dispatches on the serialized ``status``: ``"failed"`` payloads come
    back as :class:`TaskFailure`, everything else as
    :class:`RunResult` — with its recorded status preserved, not reset
    to ok.
    """
    if payload.get("status") == "failed":
        return TaskFailure.from_dict(payload)
    return RunResult.from_dict(payload)


def split_outcomes(
    outcomes: list,
) -> tuple[list[RunResult], list[TaskFailure]]:
    """Partition merged outcomes into successes and captured failures."""
    results = [o for o in outcomes if isinstance(o, RunResult)]
    failures = [o for o in outcomes if isinstance(o, TaskFailure)]
    return results, failures


class ResultAnalyzer:
    """Cross-result comparison (who wins, by what factor).

    Accepts mixed outcome lists for convenience: captured failures carry
    no metrics, so analysis silently considers successful results only —
    the degraded-batch semantics the fault-tolerance layer promises.
    """

    def __init__(self, results: list[RunResult]) -> None:
        self.results = [
            result for result in results if isinstance(result, RunResult)
        ]

    def add(self, result: RunResult) -> None:
        self.results.append(result)

    def by_engine(self) -> dict[str, list[RunResult]]:
        grouped: dict[str, list[RunResult]] = {}
        for result in self.results:
            grouped.setdefault(result.engine, []).append(result)
        return grouped

    def ranking(self, metric: str, higher_is_better: bool = True) -> list[RunResult]:
        """Results ordered best-first by one metric's mean."""
        comparable = [r for r in self.results if metric in r.metrics]
        return sorted(
            comparable,
            key=lambda result: result.mean(metric),
            reverse=higher_is_better,
        )

    def speedup(
        self, metric: str, baseline_engine: str, higher_is_better: bool = True
    ) -> dict[str, float]:
        """Per-engine factor relative to a baseline engine's mean."""
        by_engine = self.by_engine()
        if baseline_engine not in by_engine:
            raise MetricError(
                f"no results for baseline engine {baseline_engine!r}; "
                f"engines: {sorted(by_engine)}"
            )
        baseline_values = [
            result.mean(metric)
            for result in by_engine[baseline_engine]
            if metric in result.metrics
        ]
        if not baseline_values:
            raise MetricError(
                f"baseline engine has no samples of metric {metric!r}"
            )
        baseline = statistics.fmean(baseline_values)
        factors: dict[str, float] = {}
        for engine, results in by_engine.items():
            values = [r.mean(metric) for r in results if metric in r.metrics]
            if not values:
                continue
            mean_value = statistics.fmean(values)
            if higher_is_better:
                factors[engine] = mean_value / baseline if baseline else float("inf")
            else:
                factors[engine] = baseline / mean_value if mean_value else float("inf")
        return factors

    def summary_rows(self, metric_names: list[str]) -> list[dict[str, Any]]:
        """Flat rows (one per result) for reporting."""
        rows = []
        for result in self.results:
            row: dict[str, Any] = {
                "test": result.test_name,
                "workload": result.workload,
                "engine": result.engine,
                "repeats": result.repeats,
            }
            for name in metric_names:
                if name in result.metrics:
                    row[name] = result.mean(name)
            rows.append(row)
        return rows
