"""Sweep and comparison harnesses built on the runner.

These drive the repeated-measurement patterns the benchmark files need:
volume sweeps (scalability shapes), cross-engine comparisons (the
functional-view experiment), and configuration sweeps (planner and
cluster ablations).

Sweep points are independent runs, so every harness operation fans out
over the runner's configured executor backend (see
:mod:`repro.execution.parallel`) and merges results in submission order
— a sweep on the thread or process backend reports points in exactly
the order the serial loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.prescription import Prescription
from repro.core.results import ResultAnalyzer, RunResult
from repro.execution.config import SystemConfiguration
from repro.execution.plan import engine_configuration
from repro.execution.runner import RunTask, TestRunner


@dataclass
class SweepPoint:
    """One measured point of a parameter sweep."""

    parameter: str
    value: Any
    result: RunResult


@dataclass
class SweepReport:
    """All points of one sweep, with convenience accessors."""

    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, metric: str) -> list[tuple[Any, float]]:
        """(parameter value, metric mean) pairs in sweep order."""
        return [
            (point.value, point.result.mean(metric))
            for point in self.points
            if metric in point.result.metrics
        ]

    def rows(self, metric_names: list[str]) -> list[dict[str, Any]]:
        rows = []
        for point in self.points:
            row: dict[str, Any] = {self.parameter: point.value}
            for name in metric_names:
                if name in point.result.metrics:
                    row[name] = point.result.mean(name)
            rows.append(row)
        return rows


class BenchmarkHarness:
    """High-level sweep/compare operations for benchmark files."""

    def __init__(self, runner: TestRunner | None = None) -> None:
        self.runner = runner or TestRunner()

    def volume_sweep(
        self,
        prescription: Prescription | str,
        engine_name: str,
        volumes: list[int],
        *,
        layout: str = "row",
        **overrides: Any,
    ) -> SweepReport:
        """Run one prescription at several data volumes.

        ``layout="columnar"`` runs every point through the engine's
        columnar configuration (see
        :func:`~repro.execution.plan.engine_configuration`) and, on a
        runner with a store attached, records it in the columnar series.
        """
        configuration = engine_configuration(engine_name, layout)
        tasks = [
            RunTask(
                prescription,
                engine_name,
                volume,
                dict(overrides),
                configuration=configuration,
                series={"layout": layout},
            )
            for volume in volumes
        ]
        results = self.runner.run_many(tasks)
        report = SweepReport(parameter="volume")
        for volume, result in zip(volumes, results):
            report.points.append(SweepPoint("volume", volume, result))
        return report

    def param_sweep(
        self,
        prescription: Prescription | str,
        engine_name: str,
        parameter: str,
        values: list[Any],
        *,
        layout: str = "row",
        **fixed_overrides: Any,
    ) -> SweepReport:
        """Run one prescription sweeping a workload parameter."""
        volume_override = fixed_overrides.pop("volume_override", None)
        configuration = engine_configuration(engine_name, layout)
        tasks = [
            RunTask(
                prescription,
                engine_name,
                volume_override,
                {**fixed_overrides, parameter: value},
                configuration=configuration,
                series={"layout": layout},
            )
            for value in values
        ]
        results = self.runner.run_many(tasks)
        report = SweepReport(parameter=parameter)
        for value, result in zip(values, results):
            report.points.append(SweepPoint(parameter, value, result))
        return report

    def compare_engines(
        self,
        prescription: Prescription | str,
        engine_names: list[str],
        volume_override: int | None = None,
        **overrides: Any,
    ) -> ResultAnalyzer:
        """The same abstract test on several systems (functional view)."""
        results = self.runner.run_on_engines(
            prescription, engine_names, volume_override, **overrides
        )
        return ResultAnalyzer(results)

    def configuration_sweep(
        self,
        prescription: Prescription | str,
        engine_name: str,
        configurations: dict[str, SystemConfiguration],
        **overrides: Any,
    ) -> SweepReport:
        """Run one prescription under several engine configurations.

        Each configuration travels with its task: the runner holds no
        engine configuration of its own.
        """
        volume_override = overrides.pop("volume_override", None)
        tasks = [
            RunTask(
                prescription,
                engine_name,
                volume_override,
                dict(overrides),
                configuration=configuration,
            )
            for configuration in configurations.values()
        ]
        results = self.runner.run_many(tasks)
        report = SweepReport(parameter="configuration")
        for label, result in zip(configurations, results):
            result.extra["configuration"] = label
            report.points.append(SweepPoint("configuration", label, result))
        return report
