"""Tests for the metric taxonomy (Section 3.1)."""

from __future__ import annotations

import pytest

from repro.core.errors import MetricError
from repro.core.metrics import (
    CostMetric,
    CostModel,
    DataRateMetric,
    DurationMetric,
    EnergyMetric,
    EnergyModel,
    LatencyPercentileMetric,
    MeanLatencyMetric,
    MetricKind,
    MetricSuite,
    NetworkRateMetric,
    OpsPerSecondMetric,
    RunEvidence,
    ThroughputMetric,
)
from repro.engines.base import CostCounters


def make_evidence(**overrides) -> RunEvidence:
    defaults = dict(
        duration_seconds=2.0,
        records_in=1000,
        records_out=500,
        cost=CostCounters(
            records_read=1000, records_written=500,
            bytes_read=10_000, bytes_written=5_000,
            compute_ops=4_000, network_bytes=2_000,
        ),
        latencies=[0.001, 0.002, 0.003, 0.010],
    )
    defaults.update(overrides)
    return RunEvidence(**defaults)


class TestUserPerceivableMetrics:
    def test_duration(self):
        assert DurationMetric().compute(make_evidence()) == 2.0
        assert DurationMetric().kind is MetricKind.USER_PERCEIVABLE

    def test_throughput(self):
        assert ThroughputMetric().compute(make_evidence()) == 500.0

    def test_throughput_prefers_simulated_time(self):
        evidence = make_evidence(simulated_seconds=0.5)
        assert ThroughputMetric().compute(evidence) == 2000.0

    def test_throughput_zero_duration_rejected(self):
        with pytest.raises(MetricError):
            ThroughputMetric().compute(make_evidence(duration_seconds=0.0))

    def test_mean_latency(self):
        assert MeanLatencyMetric().compute(make_evidence()) == pytest.approx(0.004)

    def test_latency_percentile(self):
        metric = LatencyPercentileMetric(0.99)
        assert metric.name == "latency_p99"
        value = metric.compute(make_evidence())
        assert 0.003 < value <= 0.010

    def test_percentile_validation(self):
        with pytest.raises(MetricError):
            LatencyPercentileMetric(0.0)
        with pytest.raises(MetricError):
            LatencyPercentileMetric(1.5)

    def test_latency_metrics_require_samples(self):
        evidence = make_evidence(latencies=[])
        with pytest.raises(MetricError):
            MeanLatencyMetric().compute(evidence)
        with pytest.raises(MetricError):
            LatencyPercentileMetric(0.5).compute(evidence)


class TestArchitectureMetrics:
    def test_ops_per_second(self):
        assert OpsPerSecondMetric().compute(make_evidence()) == 2000.0
        assert OpsPerSecondMetric().kind is MetricKind.ARCHITECTURE

    def test_data_rate(self):
        assert DataRateMetric().compute(make_evidence()) == 7500.0

    def test_network_rate(self):
        assert NetworkRateMetric().compute(make_evidence()) == 1000.0


class TestEnergyAndCost:
    def test_energy_scales_with_duration(self):
        model = EnergyModel(num_nodes=2, idle_watts_per_node=100.0,
                            joules_per_million_ops=0.0)
        metric = EnergyMetric(model)
        assert metric.compute(make_evidence()) == pytest.approx(400.0)

    def test_energy_scales_with_ops(self):
        model = EnergyModel(num_nodes=0, joules_per_million_ops=1000.0)
        metric = EnergyMetric(model)
        assert metric.compute(make_evidence()) == pytest.approx(4.0)

    def test_cost(self):
        model = CostModel(num_nodes=4, dollars_per_node_hour=0.9)
        metric = CostMetric(model)
        assert metric.compute(make_evidence()) == pytest.approx(
            4 * (2.0 / 3600) * 0.9
        )


class TestMetricSuite:
    def test_standard_suite_covers_both_kinds(self):
        suite = MetricSuite.standard()
        kinds = {metric.kind for metric in suite.metrics}
        assert kinds == {MetricKind.USER_PERCEIVABLE, MetricKind.ARCHITECTURE}

    def test_compute_all_skips_unavailable(self):
        suite = MetricSuite.standard()
        values = suite.compute_all(make_evidence(latencies=[]))
        assert "duration" in values
        assert "mean_latency" not in values  # skipped, not raised

    def test_compute_all_full_evidence(self):
        values = MetricSuite.standard().compute_all(make_evidence())
        for name in ("duration", "throughput", "mean_latency", "latency_p99",
                     "ops_per_second", "data_rate", "energy", "cost"):
            assert name in values

    def test_evidence_effective_seconds(self):
        assert make_evidence().effective_seconds == 2.0
        assert make_evidence(simulated_seconds=0.25).effective_seconds == 0.25
