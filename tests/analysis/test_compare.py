"""The statistical comparison engine: CIs, rank test, verdicts."""

from __future__ import annotations

import pytest

from repro.analysis.compare import (
    SINGLE_SAMPLE_FACTOR,
    Comparison,
    bootstrap_mean_delta_ci,
    compare_records,
    compare_samples,
    compare_series,
    mann_whitney_u,
    metric_direction,
    min_achievable_p,
)
from repro.analysis.store import RunStore, spec_fingerprint
from repro.core.errors import AnalysisError
from repro.core.results import MetricStats, RunResult

BASELINE = [1.00, 1.02, 0.98, 1.01, 0.99]
SLOWER = [1.50, 1.53, 1.47, 1.52, 1.49]  # +50%, clearly separated


class TestPrimitives:
    def test_bootstrap_is_seeded_and_reproducible(self):
        first = bootstrap_mean_delta_ci(BASELINE, SLOWER, seed=7)
        second = bootstrap_mean_delta_ci(BASELINE, SLOWER, seed=7)
        assert first == second
        assert bootstrap_mean_delta_ci(BASELINE, SLOWER, seed=8) != first

    def test_bootstrap_ci_excludes_zero_for_a_real_shift(self):
        low, high = bootstrap_mean_delta_ci(BASELINE, SLOWER)
        assert 0.0 < low < high
        assert low < 0.5 < high  # interval brackets the true +50%

    def test_bootstrap_ci_covers_zero_for_identical_samples(self):
        low, high = bootstrap_mean_delta_ci(BASELINE, list(BASELINE))
        assert low <= 0.0 <= high

    def test_bootstrap_needs_two_samples_per_side(self):
        with pytest.raises(AnalysisError, match="at least 2"):
            bootstrap_mean_delta_ci([1.0], BASELINE)

    def test_mann_whitney_separated_samples_are_significant(self):
        _, p = mann_whitney_u(BASELINE, SLOWER)
        assert p < 0.05

    def test_mann_whitney_all_tied_returns_p_one(self):
        _, p = mann_whitney_u([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert p == 1.0

    def test_min_achievable_p_bounds_tiny_samples(self):
        assert min_achievable_p(2, 2) == pytest.approx(1 / 3)
        assert min_achievable_p(5, 5) == pytest.approx(2 / 252)
        # n=m=2 cannot reach 0.05, n=m=5 can.
        assert min_achievable_p(2, 2) > 0.05 > min_achievable_p(5, 5)

    def test_metric_direction_table(self):
        assert metric_direction("duration") == "lower"
        assert metric_direction("energy") == "lower"
        assert metric_direction("throughput") == "higher"

    @pytest.mark.parametrize(
        "metric",
        [
            "duration", "energy", "cost",
            # what the metric suite calls latencies ...
            "mean_latency", "latency_p50", "latency_p95", "latency_p99",
            # ... and what LoadReport.as_run_result records.
            "latency", "shed_fraction", "error_fraction", "queue_depth_max",
        ],
    )
    def test_lower_is_better(self, metric):
        assert metric_direction(metric) == "lower"

    @pytest.mark.parametrize(
        "metric",
        [
            "throughput", "ops_per_second", "data_rate", "network_rate",
            "achieved_rate", "offered_rate", "latency_pct", "fraction",
        ],
    )
    def test_higher_is_better(self, metric):
        assert metric_direction(metric) == "higher"

    def test_every_suite_latency_percentile_is_lower_is_better(self):
        from repro.core.metrics import LatencyPercentileMetric

        for fraction in (0.01, 0.5, 0.9, 0.999, 1.0):
            name = LatencyPercentileMetric(fraction).name
            assert metric_direction(name) == "lower", name


class TestVerdicts:
    def test_identical_samples_are_unchanged(self):
        comparison = compare_samples("duration", BASELINE, list(BASELINE))
        assert comparison.verdict == "unchanged"
        assert comparison.relative_delta == pytest.approx(0.0)

    def test_seeded_slowdown_regresses_with_ci_excluding_zero(self):
        comparison = compare_samples("duration", BASELINE, SLOWER)
        assert comparison.verdict == "regressed"
        assert comparison.ci_low > 0.0
        assert comparison.p_value < 0.05
        assert comparison.significant

    def test_direction_flips_the_verdict(self):
        # The same upward shift is an improvement when higher is better.
        comparison = compare_samples("throughput", BASELINE, SLOWER)
        assert comparison.verdict == "improved"
        comparison = compare_samples(
            "custom", BASELINE, SLOWER, direction="lower"
        )
        assert comparison.verdict == "regressed"

    def test_certain_but_tiny_delta_is_unchanged(self):
        nudged = [value * 1.01 for value in BASELINE]  # +1% < 5% tolerance
        comparison = compare_samples("duration", BASELINE, nudged)
        assert comparison.verdict == "unchanged"

    def test_noisy_overlap_is_inconclusive_not_unchanged(self):
        noisy = [0.80, 1.30, 0.95, 1.25, 0.90]  # +4%…; wide spread
        comparison = compare_samples(
            "duration", [1.0, 1.2, 0.8, 1.1, 0.9], noisy, tolerance=0.01
        )
        assert comparison.verdict == "inconclusive"

    def test_single_sample_gray_zone_is_honest(self):
        # n=1: within tolerance → unchanged; beyond 3× tolerance →
        # directional; between → inconclusive, never a false verdict.
        assert compare_samples("duration", [1.0], [1.02]).verdict == (
            "unchanged"
        )
        gray = 1.0 + 2.0 * 0.05  # 2× tolerance < SINGLE_SAMPLE_FACTOR
        assert compare_samples("duration", [1.0], [gray]).verdict == (
            "inconclusive"
        )
        big = 1.0 + (SINGLE_SAMPLE_FACTOR + 1) * 0.05
        assert compare_samples("duration", [1.0], [big]).verdict == (
            "regressed"
        )

    def test_empty_samples_raise(self):
        with pytest.raises(AnalysisError, match="empty"):
            compare_samples("duration", [], [1.0])

    def test_percentile_snapshots_ride_along(self):
        comparison = compare_samples("duration", BASELINE, SLOWER)
        assert set(comparison.baseline_percentiles) == {"p50", "p95", "p99"}
        assert comparison.candidate_percentiles["p50"] == pytest.approx(
            MetricStats("duration", SLOWER).p50
        )


class TestComparisonRollup:
    def test_overall_is_worst_first(self):
        comparison = compare_records(
            {"duration": BASELINE, "throughput": BASELINE},
            {"duration": SLOWER, "throughput": list(BASELINE)},
        )
        assert comparison.metrics["duration"].verdict == "regressed"
        assert comparison.metrics["throughput"].verdict == "unchanged"
        assert comparison.overall == "regressed"
        assert [c.metric for c in comparison.with_verdict("regressed")] == [
            "duration"
        ]

    def test_all_unchanged_rolls_up_unchanged(self):
        comparison = compare_records(
            {"duration": BASELINE}, {"duration": list(BASELINE)}
        )
        assert comparison.overall == "unchanged"

    def test_empty_comparison_rolls_up_unchanged(self):
        assert Comparison("a", "b").overall == "unchanged"

    def test_accepts_run_results_and_restricts_metrics(self):
        baseline = RunResult(
            "t", "w", "e", 5,
            metrics={
                "duration": MetricStats("duration", BASELINE),
                "cost": MetricStats("cost", BASELINE),
            },
        )
        candidate = RunResult(
            "t", "w", "e", 5,
            metrics={"duration": MetricStats("duration", SLOWER)},
        )
        comparison = compare_records(
            baseline, candidate, metrics=["duration"]
        )
        assert list(comparison.metrics) == ["duration"]
        with pytest.raises(AnalysisError, match="not present on both"):
            compare_records(baseline, candidate, metrics=["cost"])

    def test_no_shared_metrics_raises(self):
        with pytest.raises(AnalysisError, match="no comparable metrics"):
            compare_records({"a": BASELINE}, {"b": BASELINE})

    def test_as_dict_is_machine_readable(self):
        payload = compare_records(
            {"duration": BASELINE}, {"duration": SLOWER}
        ).as_dict()
        assert payload["overall"] == "regressed"
        metric = payload["metrics"]["duration"]
        assert metric["verdict"] == "regressed"
        assert metric["ci_low"] > 0


class TestCompareSeries:
    def test_pooling_raises_power(self, tmp_path):
        store = RunStore(tmp_path)
        fingerprint = spec_fingerprint("p", "e", volume=10)

        def record(samples):
            result = RunResult(
                "t", "w", "e", len(samples),
                metrics={"duration": MetricStats("duration", samples)},
            )
            return store.record_outcome(result, fingerprint)

        old = [record([1.0, 1.02]), record([0.98, 1.01])]
        new = [record([1.5, 1.52]), record([1.49, 1.51])]
        comparison = compare_series(old, new)
        assert comparison.metrics["duration"].baseline_n == 4
        assert comparison.metrics["duration"].verdict == "regressed"
        assert comparison.baseline == "r0001..r0002"
        assert comparison.candidate == "r0003..r0004"

    def test_empty_series_raise(self):
        with pytest.raises(AnalysisError, match="empty record series"):
            compare_series([], [])


class TestAblationEdgeCases:
    """The paired-cell shapes the tuning-ablation driver feeds through
    compare_records: single-repeat cells, identical-sample ties, and
    all-regressed matrices must come out deterministic."""

    def _cell(self, samples):
        return RunResult(
            "t", "w", "e", len(samples),
            metrics={"duration": MetricStats("duration", samples)},
        )

    def test_single_repeat_cells_within_guard_are_inconclusive(self):
        comparison = compare_records(
            self._cell([1.0]), self._cell([1.1]), metrics=["duration"]
        )
        lead = comparison.metrics["duration"]
        # +10% is beyond tolerance but under the 3x single-sample
        # guard: one sample per side cannot earn a directional verdict.
        assert lead.baseline_n == lead.candidate_n == 1
        assert lead.verdict == "inconclusive"
        assert lead.ci_low is None and lead.p_value is None

    def test_single_repeat_cells_beyond_guard_are_directional(self):
        factor = 1 + SINGLE_SAMPLE_FACTOR * 0.05 + 0.01
        slower = compare_records(
            self._cell([1.0]), self._cell([factor]), metrics=["duration"]
        )
        assert slower.metrics["duration"].verdict == "regressed"
        faster = compare_records(
            self._cell([1.0]), self._cell([2 - factor]), metrics=["duration"]
        )
        assert faster.metrics["duration"].verdict == "improved"

    def test_identical_sample_ties_are_unchanged(self):
        tied = [1.0, 1.0, 1.0, 1.0, 1.0]
        comparison = compare_records(
            self._cell(tied), self._cell(list(tied)), metrics=["duration"]
        )
        lead = comparison.metrics["duration"]
        assert lead.verdict == "unchanged"
        assert lead.relative_delta == 0.0

    def test_all_regressed_matrix_is_deterministic(self):
        pairs = [
            (BASELINE, SLOWER),
            ([2.0, 2.02, 1.98, 2.01, 1.99], [3.1, 3.08, 3.12, 3.09, 3.11]),
            ([0.5, 0.51, 0.49, 0.50, 0.52], [0.9, 0.91, 0.89, 0.90, 0.92]),
        ]
        first = [
            compare_records(
                self._cell(base), self._cell(cand),
                metrics=["duration"], seed=0,
            ).as_dict()
            for base, cand in pairs
        ]
        second = [
            compare_records(
                self._cell(base), self._cell(cand),
                metrics=["duration"], seed=0,
            ).as_dict()
            for base, cand in pairs
        ]
        assert first == second
        assert all(
            payload["metrics"]["duration"]["verdict"] == "regressed"
            for payload in first
        )
