"""The three-layer architecture (Figure 2).

* :class:`UserInterfaceLayer` — helps system owners specify requirements:
  browse prescriptions/domains/engines/metrics, build and validate specs.
* :class:`FunctionLayer` — data generators, the test generator, and the
  metric taxonomy.
* :class:`ExecutionLayer` — format conversion and the result
  reporter; the five-step process builds the runner each run uses.

:class:`BigDataBenchmark` wires the three layers into the single facade a
user needs: ``BigDataBenchmark().run(spec)``.
"""

from __future__ import annotations

from typing import Any

from repro.core import registry
from repro.core.metrics import MetricSuite
from repro.core.prescription import (
    Prescription,
    PrescriptionRepository,
    builtin_repository,
)
from repro.core.process import BenchmarkingProcess, ProcessReport
from repro.core.results import RunResult
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.datagen.base import DataSet
from repro.datagen.formats import available_formats, convert
from repro.execution.report import render_results
from repro.observability import Tracer


class UserInterfaceLayer:
    """Interfaces for specifying benchmarking requirements."""

    def __init__(self, repository: PrescriptionRepository) -> None:
        self.repository = repository

    def available_prescriptions(self) -> list[str]:
        return self.repository.names()

    def available_domains(self) -> list[str]:
        return self.repository.domains()

    def available_engines(self) -> list[str]:
        return registry.engines.names()

    def available_generators(self) -> list[str]:
        return registry.generators.names()

    def available_workloads(self) -> list[str]:
        return registry.workloads.names()

    def build_spec(self, prescription: str, **options: Any) -> BenchmarkSpec:
        """Build and validate a spec in one call."""
        spec = BenchmarkSpec(prescription=prescription, **options)
        spec.validate(self.repository)
        return spec


class FunctionLayer:
    """Data generators, test generator, and metrics (Figure 2, middle)."""

    def __init__(self, repository: PrescriptionRepository) -> None:
        self.test_generator = TestGenerator(repository)
        self.metric_suite = MetricSuite.standard()

    def generate_data(
        self, generator_name: str, volume: int, fit_on: str | None = None
    ) -> DataSet:
        """Directly drive one registered data generator."""
        generator = self.test_generator.model_cache.fitted(
            registry.generators.create(generator_name), fit_on
        )
        return generator.generate(volume)


class ExecutionLayer:
    """Format conversion and reporting."""

    def convert_format(self, dataset: DataSet, format_name: str):
        return convert(dataset, format_name)

    def available_formats(self) -> list[str]:
        return available_formats()

    def report(self, results: list[RunResult], metric_names: list[str],
               style: str = "ascii") -> str:
        return render_results(results, style=style, metrics=metric_names)


class BigDataBenchmark:
    """The assembled three-layer benchmark (the paper's Figure 2)."""

    def __init__(self, repository: PrescriptionRepository | None = None) -> None:
        self.repository = repository or builtin_repository()
        self.user_interface = UserInterfaceLayer(self.repository)
        self.function_layer = FunctionLayer(self.repository)
        self.execution_layer = ExecutionLayer()
        self._process = BenchmarkingProcess(
            self.repository, self.function_layer.test_generator
        )

    def run(
        self,
        spec: BenchmarkSpec | str,
        tracer: Tracer | None = None,
        **options: Any,
    ) -> ProcessReport:
        """Run a spec (or prescription name) through the five-step process.

        Pass a :class:`~repro.observability.Tracer` to record the run's
        span tree (one span per Figure-1 step, with executor, engine,
        and cache detail nested beneath).
        """
        if isinstance(spec, str):
            spec = self.user_interface.build_spec(spec, **options)
        return self._process.execute(spec, tracer=tracer)

    def prescription(self, name: str) -> Prescription:
        return self.repository.get(name)
