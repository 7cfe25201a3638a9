"""Tests for the deterministic fault-injection module."""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.errors import EngineError
from repro.engines.base import CostCounters
from repro.engines.faults import (
    FaultSpec,
    FaultyEngine,
    InjectedFault,
    current_fault_attempt,
    fault_attempt,
)


class TestFaultSpec:
    def test_decisions_are_pure(self):
        spec = FaultSpec(seed=3, failure_rate=0.5, latency_rate=0.5,
                         latency_seconds=0.01)
        for point in [("a@x", 0, 0), ("a@x", 1, 0), ("b@y", 0, 3)]:
            assert spec.decide(*point) == spec.decide(*point)

    def test_different_seeds_differ_somewhere(self):
        points = [("task", attempt, call)
                  for attempt in range(4) for call in range(4)]
        a = [FaultSpec(seed=1, failure_rate=0.5).decide(*p) for p in points]
        b = [FaultSpec(seed=2, failure_rate=0.5).decide(*p) for p in points]
        assert a != b

    def test_failure_rate_roughly_respected(self):
        spec = FaultSpec(seed=0, failure_rate=0.3)
        decisions = [spec.decide("k", 0, call) for call in range(500)]
        rate = sum(d.fail for d in decisions) / len(decisions)
        assert 0.2 < rate < 0.4

    def test_fail_attempts_always_fail(self):
        spec = FaultSpec(fail_attempts=(0, 1))
        assert spec.decide("k", 0, 0).fail
        assert spec.decide("k", 1, 0).fail
        assert not spec.decide("k", 2, 0).fail

    def test_fail_calls_always_fail(self):
        spec = FaultSpec(fail_calls=(2,))
        assert not spec.decide("k", 0, 0).fail
        assert spec.decide("k", 0, 2).fail

    def test_latency_decision(self):
        spec = FaultSpec(latency_rate=1.0, latency_seconds=0.25)
        assert spec.decide("k", 0, 0).latency_seconds == 0.25

    @pytest.mark.parametrize("kwargs", [
        {"failure_rate": 1.5},
        {"failure_rate": -0.1},
        {"latency_rate": 2.0},
        {"latency_seconds": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)


class TestAttemptContext:
    def test_context_sets_and_restores(self):
        assert current_fault_attempt() is None
        with fault_attempt("outer", 0):
            state = current_fault_attempt()
            assert (state.key, state.attempt) == ("outer", 0)
            with fault_attempt("inner", 2):
                assert current_fault_attempt().key == "inner"
            assert current_fault_attempt().key == "outer"
        assert current_fault_attempt() is None

    def test_call_counter_increments_within_attempt(self):
        with fault_attempt("k", 0):
            state = current_fault_attempt()
            assert [state.next_call() for _ in range(3)] == [0, 1, 2]


class TestFaultyEngine:
    def _engine(self, spec: FaultSpec) -> FaultyEngine:
        return FaultyEngine(registry.engines.create("nosql"), spec)

    def test_preserves_name_and_software_stack(self):
        engine = self._engine(FaultSpec())
        assert engine.name == "nosql"
        assert engine.software_stack == engine._inner.software_stack

    def test_delegates_attributes_and_dunders(self):
        engine = self._engine(FaultSpec())
        assert engine.counters is engine._inner.counters
        assert len(engine) == len(engine._inner)

    def test_injects_on_scheduled_attempt(self):
        engine = self._engine(FaultSpec(fail_attempts=(0,)))
        with fault_attempt("k", 0):
            with pytest.raises(InjectedFault):
                engine.inject_fault()
        with fault_attempt("k", 1):
            engine.inject_fault()  # later attempt passes

    def test_standalone_counts_calls(self):
        engine = self._engine(FaultSpec(fail_calls=(1,)))
        engine.inject_fault()  # call 0: clean
        with pytest.raises(InjectedFault):
            engine.inject_fault()  # call 1: scheduled failure
        engine.inject_fault()  # call 2: clean again

    def test_injected_fault_is_engine_error(self):
        assert issubclass(InjectedFault, EngineError)


class TestDispatcherSeam:
    def test_faulty_engine_raises_before_running(self):
        inner = registry.engines.create("mapreduce")
        engine = FaultyEngine(inner, FaultSpec(fail_calls=(0,)))
        text = registry.generators.create("random-text").generate(5)
        with pytest.raises(InjectedFault):
            registry.workloads.create("wordcount").run(engine, text)
        assert inner.counters.snapshot() == CostCounters().snapshot()
