"""E4 — Figure 2: the three-layer architecture, component by component.

Drives every box of the layer diagram: user-interface enumeration and
spec building, function-layer data generation / test generation / both
metric families, and execution-layer configuration, format conversion,
and reporting.
"""

from __future__ import annotations

from conftest import print_banner

from repro import BenchmarkSpec
from repro.core.metrics import MetricKind
from repro.execution.plan import resolve
from repro.execution.report import ascii_table
from repro.execution.runner import TestRunner


def test_user_interface_layer(benchmark, framework):
    ui = framework.user_interface

    def enumerate_and_build():
        catalogue = {
            "prescriptions": ui.available_prescriptions(),
            "domains": ui.available_domains(),
            "engines": ui.available_engines(),
            "generators": ui.available_generators(),
            "workloads": ui.available_workloads(),
        }
        spec = ui.build_spec("micro-wordcount", volume=50, repeats=1)
        return catalogue, spec

    catalogue, spec = benchmark(enumerate_and_build)
    print_banner("E4", "user-interface layer catalogue")
    print(
        ascii_table(
            [{"kind": kind, "count": len(values)} for kind, values in
             catalogue.items()]
        )
    )
    assert isinstance(spec, BenchmarkSpec)
    assert len(catalogue["workloads"]) >= 16


def test_function_layer(benchmark, framework):
    fl = framework.function_layer

    def generate_all_types():
        return {
            "text": fl.generate_data("random-text", 40),
            "table": fl.generate_data("mixture-table", 40),
            "graph": fl.generate_data("rmat-graph", 64),
            "stream": fl.generate_data("poisson-stream", 200),
            "key-value": fl.generate_data("kv-records", 40),
        }

    datasets = benchmark(generate_all_types)
    print_banner("E4", "function layer — one generator per data source")
    print(
        ascii_table(
            [
                {"data source": name, "records": dataset.num_records,
                 "bytes": dataset.estimated_bytes()}
                for name, dataset in datasets.items()
            ]
        )
    )
    kinds = {metric.kind for metric in fl.metric_suite.metrics}
    assert kinds == {MetricKind.USER_PERCEIVABLE, MetricKind.ARCHITECTURE}


def test_execution_layer(benchmark, framework):
    el = framework.execution_layer
    test_generator = framework.function_layer.test_generator
    runner = TestRunner(test_generator)
    spec = BenchmarkSpec("micro-wordcount", engines=["mapreduce"], volume=60)
    tasks = resolve(spec, test_generator.repository).tasks

    def configure_convert_run_report():
        dataset = framework.function_layer.generate_data("random-text", 60)
        converted = el.convert_format(dataset, "text-lines")
        (result,) = runner.run_many(tasks)
        table = el.report([result], ["duration", "throughput",
                                     "ops_per_second"])
        return converted, result, table

    converted, result, table = benchmark.pedantic(
        configure_convert_run_report, rounds=3, iterations=1
    )
    print_banner("E4", "execution layer — convert, run, report")
    print(f"format conversion: {converted.format_name}, "
          f"{len(converted)} lines")
    print(table)
    assert result.mean("throughput") > 0
