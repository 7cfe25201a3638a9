"""Wrappers go in, record, and come out; a renamed target costs one metric."""

import pytest

import layers
import spans


def _originals():
    from repro.analysis import compare
    from repro.core.spec import BenchmarkSpec
    from repro.datagen.base import DataGenerator
    from repro.execution.runner import TestRunner
    from repro import api

    return {
        "validate": vars(BenchmarkSpec)["validate"],
        "run_many": vars(TestRunner)["run_many"],
        "generate": vars(DataGenerator)["generate"],
        "compare_records": compare.compare_records,
        "api.compare_records": api.compare_records,
    }


def test_install_wraps_and_exit_restores_every_original():
    before = _originals()
    assert layers.wrapped_targets() == []
    with layers.installed(spans.Recorder()) as warnings:
        inside = _originals()
        assert all(getattr(value, layers.MARK, False) for value in inside.values())
        # ``from m import f`` copies share one wrapper.
        assert inside["compare_records"] is inside["api.compare_records"]
        assert len(layers.wrapped_targets()) >= len(layers.TARGETS)
    assert warnings == []
    assert _originals() == before
    assert layers.wrapped_targets() == []


def test_a_timed_round_refuses_to_start_while_anything_is_wrapped():
    layers.require_unwrapped()
    with layers.installed(spans.Recorder()):
        with pytest.raises(RuntimeError, match="BenchmarkSpec.validate"):
            layers.require_unwrapped()
    layers.require_unwrapped()


def test_originals_come_back_when_the_traced_code_raises():
    before = _originals()
    try:
        with layers.installed(spans.Recorder()):
            raise KeyError("cell failed")
    except KeyError:
        pass
    assert _originals() == before


def test_a_missing_target_is_a_warning_not_an_error(monkeypatch):
    gone = (
        layers.Target("engines.dbms.execute", "repro.engines.dbms", "DbmsEngine.run_query"),
        layers.Target("analysis.compare", "repro.analysis.nowhere", "compare_records"),
    )
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS[:3] + gone)
    with layers.installed(spans.Recorder()) as warnings:
        pass
    assert len(warnings) == 2
    assert "DbmsEngine.run_query" in warnings[0]
    assert "engines.dbms.execute omitted" in warnings[0]
    assert layers.wrapped_targets() == []


def test_a_traced_run_yields_layer_metrics_with_counts():
    from repro import api

    recorder = spans.Recorder()
    with layers.installed(recorder) as warnings:
        recorder.begin_cell("relational")
        report = api.run("database-aggregate-join", volume=300)
    assert warnings == []
    assert [result.status for result in report.results] == ["ok"] * 3
    observed = {
        "relational": {"bytes": report.step("data-generation").detail["bytes"]}
    }
    metrics = layers.layer_metrics(recorder.spans, observed)
    # One generation serves three engines: 1 miss, then 3 hits.
    assert metrics["datagen.cache.misses"] == 1
    assert metrics["datagen.cache.hits"] == 3
    assert metrics["datagen.records"] == 300
    assert metrics["datagen.fitted-table.records_per_s"] > 0
    assert metrics["datagen.bytes"] == observed["relational"]["bytes"]
    assert metrics["execution.tasks"] == 3
    assert metrics["execution.task_failures"] == 0
    assert metrics["engines.dbms.queries"] == 1
    assert metrics["engines.mapreduce.jobs"] == 2
    assert metrics["engines.nosql.operations"] > 300
    busy, own = (
        metrics["execution.run_many.busy_s"], metrics["execution.run_many.self_s"]
    )
    assert 0 < own < busy
    assert metrics["workloads.run.busy_s"] <= busy
    # Layers that did not run have no metric, rather than a zero.
    assert "engines.streaming.run.busy_s" not in metrics
    assert "loadgen.requests" not in metrics
    assert {span.cell for span in recorder.spans} == {"relational"}
