"""Heterogeneous hardware platform evaluation (Section 5.2).

The paper proposes extending big data benchmarks to "state-of-the-practice
heterogeneous platforms" (Xeon+GPGPU, Xeon+MIC) through "a uniform
interface to enable [an] application running in different platforms",
with the evaluation expected to show:

1. whether any platform consistently wins **both** performance and energy
   efficiency across all big data applications, and
2. which platform suits each application class.

This module implements that evaluation over *simulated* platforms (the
DESIGN.md §2 substitution for accelerator hardware).  A platform is an
Amdahl model: a workload's *accelerable fraction* runs ``speedup``×
faster on the accelerator while the rest stays on the host; power is the
host's plus the accelerator's.  Accelerable fractions are declared per
workload (dense numeric kernels like k-means are highly accelerable;
irregular pointer-chasing like sort/grep barely).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import MetricError
from repro.workloads.base import WorkloadResult


@dataclass(frozen=True)
class PlatformSpec:
    """One simulated hardware platform."""

    name: str
    #: Speedup of the accelerable fraction (1.0 = no accelerator).
    accelerator_speedup: float
    #: Host power draw in watts.
    host_watts: float
    #: Extra power the accelerator draws whenever the node is on.
    accelerator_watts: float

    @property
    def total_watts(self) -> float:
        return self.host_watts + self.accelerator_watts


#: The platforms Section 5.2 names, as simulated models.  The accelerator
#: numbers follow the era's published shapes: big speedups on dense
#: numeric kernels, large additional power draw.
STANDARD_PLATFORMS: tuple[PlatformSpec, ...] = (
    PlatformSpec("Xeon (CPU only)", accelerator_speedup=1.0,
                 host_watts=130.0, accelerator_watts=0.0),
    PlatformSpec("Xeon+GPGPU", accelerator_speedup=12.0,
                 host_watts=130.0, accelerator_watts=250.0),
    PlatformSpec("Xeon+MIC", accelerator_speedup=6.0,
                 host_watts=130.0, accelerator_watts=210.0),
)


#: workload name → fraction of its time in accelerable numeric kernels.
#: Dense linear-algebra-ish workloads accelerate well; shuffles, string
#: handling, and serving operations do not.
ACCELERABLE_FRACTIONS: dict[str, float] = {
    "kmeans": 0.90,
    "naive-bayes": 0.75,
    "pagerank": 0.70,
    "collaborative-filtering": 0.65,
    "connected-components": 0.40,
    "terasort": 0.30,
    "sort": 0.25,
    "wordcount": 0.25,
    "inverted-index": 0.25,
    "grep": 0.15,
    "relational-query": 0.20,
    "count-url-links": 0.20,
    "ycsb": 0.05,
    "hybrid": 0.05,
    "cfs": 0.02,
    "windowed-aggregation": 0.30,
    "rolling-update-rate": 0.25,
}


def accelerable_fraction(workload_name: str) -> float:
    """The declared accelerable fraction of a workload (default 0.2)."""
    return ACCELERABLE_FRACTIONS.get(workload_name, 0.2)


@dataclass
class PlatformProjection:
    """One workload's projected behaviour on one platform."""

    workload: str
    platform: str
    seconds: float
    energy_joules: float


def project(
    result: WorkloadResult,
    platform: PlatformSpec,
    fraction: float | None = None,
) -> PlatformProjection:
    """Project a measured workload run onto a platform (Amdahl model)."""
    baseline = result.simulated_seconds or result.duration_seconds
    if baseline <= 0:
        raise MetricError(
            f"workload {result.workload!r} has no measured time to project"
        )
    if fraction is None:
        fraction = accelerable_fraction(result.workload)
    if not 0.0 <= fraction <= 1.0:
        raise MetricError(f"fraction must be in [0, 1], got {fraction}")
    seconds = baseline * (
        (1.0 - fraction) + fraction / platform.accelerator_speedup
    )
    energy = platform.total_watts * seconds
    return PlatformProjection(
        workload=result.workload,
        platform=platform.name,
        seconds=seconds,
        energy_joules=energy,
    )


@dataclass
class PlatformEvaluation:
    """The Section 5.2 evaluation over workloads × platforms."""

    projections: list[PlatformProjection] = field(default_factory=list)

    def add(self, result: WorkloadResult,
            platforms: tuple[PlatformSpec, ...] = STANDARD_PLATFORMS) -> None:
        for platform in platforms:
            self.projections.append(project(result, platform))

    def workloads(self) -> list[str]:
        return sorted({p.workload for p in self.projections})

    def platforms(self) -> list[str]:
        return sorted({p.platform for p in self.projections})

    def _by_workload(self, workload: str) -> list[PlatformProjection]:
        return [p for p in self.projections if p.workload == workload]

    def best_performance(self, workload: str) -> PlatformProjection:
        candidates = self._by_workload(workload)
        if not candidates:
            raise MetricError(f"no projections for workload {workload!r}")
        return min(candidates, key=lambda p: p.seconds)

    def best_energy(self, workload: str) -> PlatformProjection:
        candidates = self._by_workload(workload)
        if not candidates:
            raise MetricError(f"no projections for workload {workload!r}")
        return min(candidates, key=lambda p: p.energy_joules)

    def consistent_winner(self) -> str | None:
        """Question (1): a platform winning BOTH metrics for ALL workloads.

        Returns the platform name, or None (the paper's expected answer).
        """
        winner: str | None = None
        for workload in self.workloads():
            best_perf = self.best_performance(workload).platform
            best_energy = self.best_energy(workload).platform
            if best_perf != best_energy:
                return None
            if winner is None:
                winner = best_perf
            elif winner != best_perf:
                return None
        return winner

    def per_class_recommendation(self) -> dict[str, dict[str, str]]:
        """Question (2): the right platform per application/workload."""
        return {
            workload: {
                "performance": self.best_performance(workload).platform,
                "energy": self.best_energy(workload).platform,
            }
            for workload in self.workloads()
        }

    def rows(self) -> list[dict[str, object]]:
        """Flat rows for reporting."""
        return [
            {
                "workload": p.workload,
                "platform": p.platform,
                "seconds": p.seconds,
                "energy (J)": p.energy_joules,
            }
            for p in self.projections
        ]
