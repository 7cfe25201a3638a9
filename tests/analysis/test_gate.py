"""Baseline management and the regression gate's CI semantics."""

from __future__ import annotations

import pytest

from repro.analysis.baselines import BaselineManager
from repro.analysis.gate import check_regressions
from repro.analysis.store import RunStore, spec_fingerprint
from repro.core.errors import AnalysisError
from repro.core.results import MetricStats, RunResult, TaskFailure

FINGERPRINT = spec_fingerprint("micro-wordcount", "mapreduce", volume=100)
BASELINE = [1.00, 1.02, 0.98, 1.01, 0.99]
SLOWER = [1.50, 1.53, 1.47, 1.52, 1.49]


def record(store, samples, fingerprint=None):
    result = RunResult(
        test_name="micro-wordcount@mapreduce",
        workload="wordcount",
        engine="mapreduce",
        repeats=len(samples),
        metrics={"duration": MetricStats("duration", list(samples))},
    )
    return store.record_outcome(result, fingerprint or FINGERPRINT)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


class TestBaselines:
    def test_promote_resolve_repoint_remove(self, store):
        record(store, BASELINE)
        record(store, BASELINE)
        manager = BaselineManager(store)
        baseline = manager.promote("r0001", "main")
        assert baseline.record_id == "r0001"
        assert manager.resolve("main").record_id == "r0001"
        # Re-promoting repoints; the old record stays in the store.
        manager.promote("latest", "main")
        assert manager.resolve("main").record_id == "r0002"
        assert len(store.records()) == 2
        manager.remove("main")
        with pytest.raises(AnalysisError, match="unknown baseline"):
            manager.get("main")

    def test_failed_runs_cannot_become_baselines(self, store):
        failure = TaskFailure(
            test_name="t", workload="w", engine="e",
            error_type="EngineError", error_message="boom",
        )
        store.record_outcome(failure, FINGERPRINT)
        with pytest.raises(AnalysisError, match="only ok runs"):
            BaselineManager(store).promote("latest", "main")

    def test_reserved_and_empty_names_rejected(self, store):
        record(store, BASELINE)
        manager = BaselineManager(store)
        with pytest.raises(AnalysisError, match="invalid baseline name"):
            manager.promote("latest", "latest")
        with pytest.raises(AnalysisError, match="invalid baseline name"):
            manager.promote("latest", "")


class TestGate:
    def test_identical_rerun_passes_with_exit_zero(self, store):
        record(store, BASELINE)
        BaselineManager(store).promote("latest", "main")
        record(store, list(BASELINE))
        report = check_regressions(store, "main")
        assert report.passed
        assert report.exit_code == 0
        assert report.reasons == []
        assert report.candidate_id == "r0002"

    def test_slowdown_fails_with_exit_one_and_reasons(self, store):
        record(store, BASELINE)
        BaselineManager(store).promote("latest", "main")
        record(store, SLOWER)
        report = check_regressions(store, "main")
        assert not report.passed
        assert report.exit_code == 1
        assert any("duration regressed" in reason for reason in report.reasons)
        assert report.comparison.metrics["duration"].ci_low > 0

    def test_default_candidate_is_newest_in_series(self, store):
        record(store, BASELINE)
        BaselineManager(store).promote("latest", "main")
        record(store, list(BASELINE))
        record(store, SLOWER)
        # A run of a *different* configuration must not be picked up.
        record(store, SLOWER, spec_fingerprint("p", "e", volume=999))
        report = check_regressions(store, "main")
        assert report.candidate_id == "r0003"
        assert not report.passed

    def test_no_candidate_beyond_baseline_raises(self, store):
        record(store, BASELINE)
        BaselineManager(store).promote("latest", "main")
        with pytest.raises(AnalysisError, match="record a new run"):
            check_regressions(store, "main")

    def test_failed_candidate_fails_the_gate(self, store):
        record(store, BASELINE)
        BaselineManager(store).promote("latest", "main")
        failure = TaskFailure(
            test_name="t", workload="w", engine="e",
            error_type="EngineError", error_message="boom",
        )
        store.record_outcome(failure, FINGERPRINT)
        report = check_regressions(store, "main")
        assert report.exit_code == 1
        assert any("status 'failed'" in reason for reason in report.reasons)

    def test_fail_on_inconclusive_tightens_the_gate(self, store):
        record(store, [1.0, 1.2, 0.8, 1.1, 0.9])
        BaselineManager(store).promote("latest", "main")
        record(store, [0.80, 1.30, 0.95, 1.25, 0.90])
        relaxed = check_regressions(store, "main", tolerance=0.01)
        assert relaxed.comparison.metrics["duration"].verdict == (
            "inconclusive"
        )
        assert relaxed.passed
        strict = check_regressions(
            store, "main", tolerance=0.01, fail_on_inconclusive=True
        )
        assert not strict.passed
        assert any("inconclusive" in reason for reason in strict.reasons)

    def test_explicit_candidate_reference_and_as_dict(self, store):
        record(store, BASELINE)
        BaselineManager(store).promote("latest", "main")
        record(store, SLOWER)
        record(store, list(BASELINE))
        report = check_regressions(store, "main", "r0002")
        payload = report.as_dict()
        assert payload["candidate_id"] == "r0002"
        assert payload["passed"] is False
        assert payload["exit_code"] == 1
        assert payload["comparison"]["overall"] == "regressed"

    def test_a_slower_load_run_fails_the_gate(self, tmp_path):
        """Regression: a load record's ``latency`` / ``queue_depth_max``
        were read as higher-is-better, so a service four times slower
        was judged ``improved`` and passed the gate."""
        from repro import api

        store_dir = str(tmp_path / "runs")
        for mean_service in (0.005, 0.02):
            api.load(
                rate=100, duration=2, seed=1, mean_service=mean_service,
                record=True, store_dir=store_dir,
            )
        comparison = api.compare("r0001", "r0002", store_dir=store_dir)
        assert comparison.metrics["latency"].verdict == "regressed"
        assert comparison.metrics["queue_depth_max"].verdict == "regressed"
        assert comparison.overall == "regressed"
        store = RunStore(store_dir)
        BaselineManager(store).promote("r0001", "main")
        assert check_regressions(store, "main", "r0002").exit_code == 1
