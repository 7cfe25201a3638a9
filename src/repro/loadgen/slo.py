"""SLO policies and verdicts (load generation, piece 3 of 4).

A sustained-throughput benchmark is only gateable if "good" is a
predicate, not a paragraph: :class:`SLOPolicy` names the budgets (rate
fraction achieved, latency percentiles, shed and error fractions) and
:meth:`SLOPolicy.evaluate` turns one
:class:`~repro.loadgen.runner.LoadReport` into an :class:`SLOVerdict` —
a flat list of pass/fail checks with the observed value and the budget
side by side, serializable into the run store next to the latency
samples.

On a virtual clock with a seeded target the whole report is a pure
function of the plan and seed, so the verdict is deterministic: same
seed → same verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.errors import LoadGenError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.loadgen.runner import LoadReport


@dataclass(frozen=True)
class SLOCheck:
    """One budget compared against one observed value."""

    name: str
    ok: bool
    observed: float
    budget: float
    #: How ``observed`` must relate to ``budget`` to pass.
    direction: str = "<="

    def describe(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        return (
            f"{self.name}: {self.observed:.6g} {self.direction} "
            f"{self.budget:.6g} [{verdict}]"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "observed": self.observed,
            "budget": self.budget,
            "direction": self.direction,
        }


@dataclass
class SLOVerdict:
    """The pass/fail outcome of one load run against one policy."""

    passed: bool
    checks: list[SLOCheck] = field(default_factory=list)

    def reasons(self) -> list[str]:
        """Human-readable lines for every violated check."""
        return [check.describe() for check in self.checks if not check.ok]

    def as_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "checks": [check.as_dict() for check in self.checks],
        }


@dataclass(frozen=True)
class SLOPolicy:
    """The budgets a sustained-throughput run must meet.

    ``min_rate_fraction`` compares the *completion* rate against the
    *offered* rate (what the arrival schedule actually asked for — for
    bursty/diurnal shapes that differs from the nominal target), so the
    check stays meaningful across arrival kinds.  Latency budgets are
    seconds; ``None`` skips that percentile.  Shed requests never enter
    the latency samples, so the shed budget is a separate check — a
    load shedder can look fast while refusing half the work.
    """

    min_rate_fraction: float = 0.95
    p50_budget: float | None = None
    p95_budget: float | None = None
    p99_budget: float | None = None
    max_shed_fraction: float = 0.05
    max_error_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("min_rate_fraction", "max_shed_fraction",
                     "max_error_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise LoadGenError(
                    f"{name} must be in [0, 1], got {value}"
                )
        for name in ("p50_budget", "p95_budget", "p99_budget"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise LoadGenError(
                    f"{name} must be positive and finite, got {value}"
                )

    def as_dict(self) -> dict[str, Any]:
        return {
            "min_rate_fraction": self.min_rate_fraction,
            "p50_budget": self.p50_budget,
            "p95_budget": self.p95_budget,
            "p99_budget": self.p99_budget,
            "max_shed_fraction": self.max_shed_fraction,
            "max_error_fraction": self.max_error_fraction,
        }

    def evaluate(self, report: "LoadReport") -> SLOVerdict:
        """Judge one load report against every configured budget."""
        checks: list[SLOCheck] = []
        checks.append(
            SLOCheck(
                name="achieved_rate",
                observed=report.achieved_rate,
                budget=report.offered_rate * self.min_rate_fraction,
                ok=report.achieved_rate
                >= report.offered_rate * self.min_rate_fraction,
                direction=">=",
            )
        )
        stats = report.latency_stats() if report.latencies else None
        for quantile, budget in (
            (50, self.p50_budget),
            (95, self.p95_budget),
            (99, self.p99_budget),
        ):
            if budget is None:
                continue
            observed = (
                stats.percentile(quantile)
                if stats is not None
                else float("inf")
            )
            checks.append(
                SLOCheck(
                    name=f"latency_p{quantile}",
                    observed=observed,
                    budget=budget,
                    ok=observed <= budget,
                )
            )
        checks.append(
            SLOCheck(
                name="shed_fraction",
                observed=report.shed_fraction,
                budget=self.max_shed_fraction,
                ok=report.shed_fraction <= self.max_shed_fraction,
            )
        )
        checks.append(
            SLOCheck(
                name="error_fraction",
                observed=report.error_fraction,
                budget=self.max_error_fraction,
                ok=report.error_fraction <= self.max_error_fraction,
            )
        )
        return SLOVerdict(
            passed=all(check.ok for check in checks), checks=checks
        )
