"""The metric taxonomy of Section 3.1.

The Function Layer divides metrics into **user-perceivable** metrics
(duration, request latency, throughput — comparing workloads of the same
category) and **architecture** metrics (MIPS/MFLOPS analogues — comparing
workloads across categories).  In this simulator the architecture metrics
are derived from the engines' uniform cost counters: abstract operations
per second stands in for MIPS, data rate for memory bandwidth.

The paper also requires metrics to "take energy consumption [and] cost
efficiency into consideration"; :class:`EnergyModel` and :class:`CostModel`
provide both, parameterised on the simulated cluster.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
import enum

from repro._util import percentile, sequential_sum
from repro.core.errors import MetricError
from repro.engines.base import CostCounters


#: Metrics where a smaller value is the better one, by exact name;
#: :func:`metric_direction` adds the name families (latencies and
#: their percentiles, shed/error fractions).
LOWER_IS_BETTER = frozenset(
    {"duration", "energy", "cost", "latency", "queue_depth_max"}
)


def metric_direction(metric: str) -> str:
    """``"lower"`` or ``"higher"`` — which way is better for a metric.

    The one definition: comparisons, the gate and the result analyzer's
    rankings and speedups all ask here.
    """
    lower = (
        metric in LOWER_IS_BETTER
        or metric.endswith(("_latency", "_fraction"))
        or (metric.startswith("latency_p") and metric[9:].isdigit())
    )
    return "lower" if lower else "higher"


class MetricKind(enum.Enum):
    """The paper's two metric families."""

    USER_PERCEIVABLE = "user-perceivable"
    ARCHITECTURE = "architecture"


@dataclass
class RunEvidence:
    """Everything a finished run exposes for metric computation."""

    duration_seconds: float
    records_in: int = 0
    records_out: int = 0
    cost: CostCounters = field(default_factory=CostCounters)
    #: Per-request latencies (online-service workloads).
    latencies: list[float] = field(default_factory=list)
    #: Makespan on the simulated cluster, when the engine models one.
    simulated_seconds: float | None = None

    @property
    def effective_seconds(self) -> float:
        """Simulated time when available, else measured wall time."""
        if self.simulated_seconds is not None and self.simulated_seconds > 0:
            return self.simulated_seconds
        return self.duration_seconds


class Metric(ABC):
    """One named metric computed from run evidence."""

    name: str = "metric"
    kind: MetricKind = MetricKind.USER_PERCEIVABLE
    unit: str = ""

    @abstractmethod
    def compute(self, evidence: RunEvidence) -> float:
        """The metric value for one run."""

    def describe(self) -> str:
        return f"{self.name} ({self.kind.value}, {self.unit})"


# ---------------------------------------------------------------------------
# User-perceivable metrics
# ---------------------------------------------------------------------------


class DurationMetric(Metric):
    """Wall-clock duration of the test (the paper's first example)."""

    name = "duration"
    kind = MetricKind.USER_PERCEIVABLE
    unit = "s"

    def compute(self, evidence: RunEvidence) -> float:
        return evidence.duration_seconds


class ThroughputMetric(Metric):
    """Records processed per second."""

    name = "throughput"
    kind = MetricKind.USER_PERCEIVABLE
    unit = "records/s"

    def compute(self, evidence: RunEvidence) -> float:
        seconds = evidence.effective_seconds
        if seconds <= 0:
            raise MetricError("cannot compute throughput for a zero-length run")
        return evidence.records_in / seconds


class MeanLatencyMetric(Metric):
    """Mean request latency (online services)."""

    name = "mean_latency"
    kind = MetricKind.USER_PERCEIVABLE
    unit = "s"

    def compute(self, evidence: RunEvidence) -> float:
        if not evidence.latencies:
            raise MetricError("run recorded no request latencies")
        return sequential_sum(evidence.latencies) / len(evidence.latencies)


class LatencyPercentileMetric(Metric):
    """A latency percentile, e.g. p99 (online services)."""

    kind = MetricKind.USER_PERCEIVABLE
    unit = "s"

    def __init__(self, fraction: float) -> None:
        if not 0.0 < fraction <= 1.0:
            raise MetricError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.name = f"latency_p{int(round(fraction * 100))}"

    def compute(self, evidence: RunEvidence) -> float:
        if not evidence.latencies:
            raise MetricError("run recorded no request latencies")
        return percentile(sorted(evidence.latencies), self.fraction)


# ---------------------------------------------------------------------------
# Architecture metrics
# ---------------------------------------------------------------------------


class OpsPerSecondMetric(Metric):
    """Abstract operations retired per second (the simulator's MIPS)."""

    name = "ops_per_second"
    kind = MetricKind.ARCHITECTURE
    unit = "ops/s"

    def compute(self, evidence: RunEvidence) -> float:
        seconds = evidence.effective_seconds
        if seconds <= 0:
            raise MetricError("cannot compute ops/s for a zero-length run")
        return evidence.cost.compute_ops / seconds


class DataRateMetric(Metric):
    """Bytes moved (read + written) per second."""

    name = "data_rate"
    kind = MetricKind.ARCHITECTURE
    unit = "bytes/s"

    def compute(self, evidence: RunEvidence) -> float:
        seconds = evidence.effective_seconds
        if seconds <= 0:
            raise MetricError("cannot compute data rate for a zero-length run")
        return (evidence.cost.bytes_read + evidence.cost.bytes_written) / seconds


class NetworkRateMetric(Metric):
    """Bytes crossing the simulated network per second."""

    name = "network_rate"
    kind = MetricKind.ARCHITECTURE
    unit = "bytes/s"

    def compute(self, evidence: RunEvidence) -> float:
        seconds = evidence.effective_seconds
        if seconds <= 0:
            raise MetricError("cannot compute network rate for a zero-length run")
        return evidence.cost.network_bytes / seconds


# ---------------------------------------------------------------------------
# Energy and cost models
# ---------------------------------------------------------------------------


@dataclass
class EnergyModel:
    """Simple linear power model over the simulated cluster.

    energy = nodes × (idle power × duration) + energy-per-op × ops.
    """

    num_nodes: int = 4
    idle_watts_per_node: float = 80.0
    joules_per_million_ops: float = 30.0

    def energy_joules(self, evidence: RunEvidence) -> float:
        seconds = evidence.effective_seconds
        idle = self.num_nodes * self.idle_watts_per_node * seconds
        active = self.joules_per_million_ops * evidence.cost.compute_ops / 1e6
        return idle + active


class EnergyMetric(Metric):
    """Total simulated energy of the run."""

    name = "energy"
    kind = MetricKind.ARCHITECTURE
    unit = "J"

    def __init__(self, model: EnergyModel | None = None) -> None:
        self.model = model or EnergyModel()

    def compute(self, evidence: RunEvidence) -> float:
        return self.model.energy_joules(evidence)


@dataclass
class CostModel:
    """Monetary cost of the run on the simulated cluster."""

    num_nodes: int = 4
    dollars_per_node_hour: float = 0.50

    def cost_dollars(self, evidence: RunEvidence) -> float:
        hours = evidence.effective_seconds / 3600.0
        return self.num_nodes * hours * self.dollars_per_node_hour


class CostMetric(Metric):
    """Total simulated dollar cost of the run."""

    name = "cost"
    kind = MetricKind.ARCHITECTURE
    unit = "$"

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model or CostModel()

    def compute(self, evidence: RunEvidence) -> float:
        return self.model.cost_dollars(evidence)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


class MetricSuite:
    """Computes a set of metrics, skipping those without evidence.

    Skipping matters: latency percentiles are meaningless for an offline
    sort, and the suite should not fail the whole run over them.
    """

    def __init__(self, metrics: list[Metric]) -> None:
        self.metrics = list(metrics)

    def compute_all(self, evidence: RunEvidence) -> dict[str, float]:
        values: dict[str, float] = {}
        for metric in self.metrics:
            try:
                values[metric.name] = metric.compute(evidence)
            except MetricError:
                continue
        return values

    @classmethod
    def standard(cls) -> "MetricSuite":
        """The default suite: both metric families plus energy and cost."""
        return cls(
            [
                DurationMetric(),
                ThroughputMetric(),
                MeanLatencyMetric(),
                LatencyPercentileMetric(0.95),
                LatencyPercentileMetric(0.99),
                OpsPerSecondMetric(),
                DataRateMetric(),
                NetworkRateMetric(),
                EnergyMetric(),
                CostMetric(),
            ]
        )
