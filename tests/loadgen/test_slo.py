"""Tests for SLO policies and verdicts."""

from __future__ import annotations

import pytest

from repro.core.errors import LoadGenError
from repro.loadgen import (
    LoadPlan,
    LoadRunner,
    SLOCheck,
    SLOPolicy,
    SLOVerdict,
    SyntheticTarget,
)


def _report(**runner_options):
    runner = LoadRunner(
        SyntheticTarget(mean_service=0.005),
        concurrency=runner_options.pop("concurrency", 4),
        **runner_options,
    )
    return runner.run(LoadPlan(rate=100.0, duration=3.0, seed=1))


class TestSLOPolicy:
    def test_default_policy_passes_an_underloaded_run(self):
        verdict = SLOPolicy().evaluate(_report())
        assert verdict.passed
        assert verdict.reasons() == []
        names = [check.name for check in verdict.checks]
        assert names == ["achieved_rate", "shed_fraction", "error_fraction"]

    def test_latency_budgets_add_checks(self):
        policy = SLOPolicy(
            p50_budget=1.0, p95_budget=1.0, p99_budget=1e-9
        )
        verdict = policy.evaluate(_report())
        names = [check.name for check in verdict.checks]
        assert "latency_p50" in names
        assert "latency_p95" in names
        assert not verdict.passed  # the 1ns p99 budget must fail
        assert any("latency_p99" in reason for reason in verdict.reasons())

    def test_overload_fails_rate_and_shed(self):
        report = LoadRunner(
            SyntheticTarget(mean_service=0.2, distribution="constant"),
            concurrency=1,
            queue_capacity=2,
        ).run(LoadPlan(arrival="constant", rate=50.0, duration=2.0))
        verdict = SLOPolicy().evaluate(report)
        assert not verdict.passed
        failing = {check.name for check in verdict.checks if not check.ok}
        assert "achieved_rate" in failing
        assert "shed_fraction" in failing

    def test_validation(self):
        with pytest.raises(LoadGenError):
            SLOPolicy(min_rate_fraction=1.5)
        with pytest.raises(LoadGenError):
            SLOPolicy(max_shed_fraction=-0.1)
        with pytest.raises(LoadGenError):
            SLOPolicy(p99_budget=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        ["p50_budget", "p95_budget", "p99_budget", "min_rate_fraction",
         "max_shed_fraction", "max_error_fraction"],
    )
    def test_non_finite_budgets_rejected(self, name, value):
        with pytest.raises(LoadGenError):
            SLOPolicy(**{name: value})

    def test_as_dict_round_trips_fields(self):
        policy = SLOPolicy(p99_budget=0.25, max_shed_fraction=0.1)
        payload = policy.as_dict()
        assert payload["p99_budget"] == 0.25
        assert payload["max_shed_fraction"] == 0.1


class TestSLOVerdict:
    def test_describe_shows_direction_and_outcome(self):
        check = SLOCheck(
            name="latency_p99", ok=False, observed=0.5, budget=0.1
        )
        assert check.describe() == "latency_p99: 0.5 <= 0.1 [VIOLATED]"

    def test_as_dict_is_json_ready(self):
        import json

        verdict = SLOVerdict(
            passed=False,
            checks=[SLOCheck("x", True, 1.0, 2.0)],
        )
        payload = json.loads(json.dumps(verdict.as_dict()))
        assert payload["passed"] is False
        assert payload["checks"][0]["name"] == "x"
