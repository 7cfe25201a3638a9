"""What a sweep returns: its points, in sweep order.

:func:`repro.api.sweep` builds one :class:`~repro.core.spec.BenchmarkSpec`
per point, resolves each through :func:`repro.execution.plan.resolve`
and runs every task in one :meth:`~repro.execution.runner.TestRunner.run_many`
batch, so the points come back in submission order on every executor
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.results import RunResult


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
