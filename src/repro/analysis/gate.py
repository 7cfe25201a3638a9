"""The regression gate (result analysis, piece 4 of 4).

``check_regressions`` evaluates a candidate run against a named
baseline and returns a machine-readable :class:`GateReport` whose
``exit_code`` carries CI semantics: 0 when no metric regressed, 1
otherwise.  Each metric's direction (lower-is-better vs higher) comes
from :func:`~repro.core.metrics.metric_direction`, and one
tolerance and one ``alpha`` hold for every metric; the gate only
decides what to *do* with the verdicts.

The default candidate is the newest record in the baseline's own
series — "did the latest run of this exact configuration get slower
than the blessed one?" — which is exactly the question a CI job asks
after re-running a pinned benchmark on a new commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.baselines import BaselineManager
from repro.analysis.compare import (
    DEFAULT_ALPHA,
    DEFAULT_TOLERANCE,
    Comparison,
    compare_records,
)
from repro.analysis.store import RunRecord, RunStore
from repro.core.errors import AnalysisError


@dataclass
class GateReport:
    """The machine-readable outcome of one gate evaluation."""

    baseline_name: str
    baseline_id: str
    candidate_id: str
    passed: bool
    comparison: Comparison | None = None
    reasons: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """CI semantics: 0 = gate passed, 1 = regression detected."""
        return 0 if self.passed else 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "baseline_name": self.baseline_name,
            "baseline_id": self.baseline_id,
            "candidate_id": self.candidate_id,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "reasons": list(self.reasons),
            "comparison": (
                self.comparison.as_dict() if self.comparison else None
            ),
        }


def check_regressions(
    store: RunStore,
    baseline: str,
    candidate: str | RunRecord | None = None,
    *,
    metrics: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    alpha: float = DEFAULT_ALPHA,
    fail_on_inconclusive: bool = False,
) -> GateReport:
    """Evaluate a candidate run against a named baseline.

    ``candidate`` may be a store reference (id / prefix / ``latest``),
    an already-loaded record, or ``None`` — meaning the newest record
    of the baseline's series that is not the baseline itself.

    The gate fails when any compared metric's verdict is ``regressed``,
    when the candidate run itself failed, or (with
    ``fail_on_inconclusive``) when the evidence cannot rule a
    regression out.
    """
    manager = BaselineManager(store)
    baseline_record = manager.resolve(baseline)

    if candidate is None:
        later = [
            record
            for record in store.series(baseline_record.series)
            if record.record_id != baseline_record.record_id
        ]
        if not later:
            raise AnalysisError(
                f"no candidate runs in series {baseline_record.series!r} "
                f"beyond baseline {baseline!r}; record a new run first"
            )
        candidate_record = later[-1]
    elif isinstance(candidate, RunRecord):
        candidate_record = candidate
    else:
        candidate_record = store.get(candidate)

    report = GateReport(
        baseline_name=baseline,
        baseline_id=baseline_record.record_id,
        candidate_id=candidate_record.record_id,
        passed=True,
    )

    if not candidate_record.ok:
        report.passed = False
        report.reasons.append(
            f"candidate {candidate_record.record_id} has status "
            f"{candidate_record.status!r}"
        )
        return report

    comparison = compare_records(
        baseline_record,
        candidate_record,
        metrics=metrics,
        tolerance=tolerance,
        alpha=alpha,
    )
    report.comparison = comparison
    for name, metric in comparison.metrics.items():
        if metric.verdict == "regressed":
            report.passed = False
            report.reasons.append(
                f"{name} regressed {metric.relative_delta:+.1%} "
                f"(CI [{_fmt(metric.ci_low)}, {_fmt(metric.ci_high)}], "
                f"p={_fmt(metric.p_value)})"
            )
        elif metric.verdict == "inconclusive" and fail_on_inconclusive:
            report.passed = False
            report.reasons.append(
                f"{name} inconclusive at {metric.relative_delta:+.1%} "
                f"with n={metric.candidate_n} (fail_on_inconclusive)"
            )
    return report


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3g}"
