"""The five-step benchmarking process (Figure 1).

Planning → Data Generation → Test Generation → Execution → Analysis &
Evaluation.  Each step produces a :class:`StepReport` so the whole run is
auditable; :class:`BenchmarkingProcess.execute` drives a
:class:`~repro.core.spec.BenchmarkSpec` through all five.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro._util import collector_paused
from repro.core.prescription import PrescriptionRepository, builtin_repository
from repro.core.results import ResultAnalyzer, RunResult, TaskFailure
from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.datagen.base import DataSet
from repro.datagen.models import ModelUse
from repro.execution.plan import resolve
from repro.execution.runner import TestRunner, record_outcomes
from repro.observability import Tracer, current_tracer


@dataclass
class StepReport:
    """Evidence from one process step."""

    step: str
    elapsed_seconds: float
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class ProcessReport:
    """The complete audit trail of one benchmarking run.

    ``outcomes`` holds one outcome per engine in submission order, as
    every other door returns them.  Under ``spec.on_error="continue"``
    a misbehaving engine no longer aborts the run: its captured
    :class:`TaskFailure` keeps its slot (and lands in the execution
    step's ``detail["failures"]``) while every completed result keeps
    its own; ``results`` and ``failures`` are the two kinds, each in
    that order.
    """

    spec: BenchmarkSpec
    steps: list[StepReport] = field(default_factory=list)
    outcomes: list[RunResult | TaskFailure] = field(default_factory=list)
    #: Run-store record ids, in outcome order (empty unless the spec
    #: asked for recording — see ``BenchmarkSpec.should_record``).
    record_ids: list[str] = field(default_factory=list)

    @property
    def results(self) -> list[RunResult]:
        return [o for o in self.outcomes if isinstance(o, RunResult)]

    @property
    def failures(self) -> list[TaskFailure]:
        return [o for o in self.outcomes if isinstance(o, TaskFailure)]

    @property
    def analyzer(self) -> ResultAnalyzer:
        return ResultAnalyzer(self.results)

    def step(self, name: str) -> StepReport:
        for step in self.steps:
            if step.step == name:
                return step
        raise KeyError(f"no step named {name!r}")


class BenchmarkingProcess:
    """Drives a benchmark spec through the five steps of Figure 1."""

    STEP_NAMES = (
        "planning",
        "data-generation",
        "test-generation",
        "execution",
        "analysis-evaluation",
    )

    def __init__(
        self,
        repository: PrescriptionRepository | None = None,
        test_generator: TestGenerator | None = None,
    ) -> None:
        self.repository = repository or builtin_repository()
        self.test_generator = test_generator or TestGenerator(self.repository)

    def execute(
        self, spec: BenchmarkSpec, tracer: Tracer | None = None
    ) -> ProcessReport:
        """Run all five steps and return the audit trail.

        When a ``tracer`` is given (or one is already active on this
        thread), the whole run records under a ``benchmark-run`` root
        span with one child span per Figure-1 step; the executor
        backends and engines nest their own spans beneath those.

        The cyclic garbage collector is paused for the run
        (:func:`repro._util.collector_paused`, DESIGN §3.21).
        """
        tracer = tracer if tracer is not None else current_tracer()
        with collector_paused(), tracer.activate():
            with tracer.span("benchmark-run", prescription=spec.prescription):
                return self._execute_steps(spec, tracer)

    def _execute_steps(self, spec: BenchmarkSpec, tracer: Tracer) -> ProcessReport:
        report = ProcessReport(spec=spec)

        # Step 1: Planning — validate the spec, then resolve it into the
        # execution plan (engines, runner options, one task per engine).
        started = time.perf_counter()
        with tracer.span("planning"):
            spec.validate(self.repository)
            plan = resolve(spec, self.repository)
            prescription = plan.prescription
            engine_names = list(plan.engines)
            metric_names = spec.metric_names or prescription.metric_names
        report.steps.append(
            StepReport(
                "planning",
                time.perf_counter() - started,
                {
                    "prescription": prescription.describe(),
                    "engines": engine_names,
                    "metrics": metric_names,
                },
            )
        )

        # Step 2: Data Generation — one data set shared by every engine.
        started = time.perf_counter()
        with tracer.span("data-generation"):
            requirement = prescription.data
            if spec.data_partitions > 1:
                requirement = replace(
                    requirement, num_partitions=spec.data_partitions
                )
            with self.test_generator.model_cache.recording() as uses:
                dataset = self.test_generator.select_data(
                    requirement, spec.volume, chunk_size=spec.chunk_size
                )
        generation_detail: dict[str, Any] = {
            "generator": requirement.generator,
            "records": dataset.num_records,
            "partitions": spec.data_partitions,
        }
        for use in uses:
            if isinstance(use, ModelUse):
                # Figure 3 step 2: whether this run trained the
                # generator's model or found it fitted (absent when
                # nothing is fitted, or the data set itself was already
                # cached).
                generation_detail["model"] = use.as_dict()
            else:
                # Whether this run walked the records for ``bytes`` or
                # the process knew the size of that content address
                # (absent when the data set itself was already cached).
                generation_detail["sizing"] = use.sizing
        if isinstance(dataset, DataSet):
            # A generated data set carries its size (known_bytes).
            generation_detail["bytes"] = (
                dataset.known_bytes
                if dataset.known_bytes is not None
                else dataset.estimated_bytes()
            )
        else:
            # A streaming source: nothing has been generated yet, and
            # sizing it would consume a full pass — record the shape
            # instead of the bytes.
            generation_detail["streamed"] = True
            generation_detail["chunk_size"] = spec.chunk_size
        report.steps.append(
            StepReport(
                "data-generation",
                time.perf_counter() - started,
                generation_detail,
            )
        )

        # Step 3: Test Generation — one test per planned engine.  The
        # runner binds each from its task (engine built as the task's
        # configuration says), so this step names them and builds
        # nothing.
        started = time.perf_counter()
        with tracer.span("test-generation"):
            tests = [f"{prescription.name}@{engine}" for engine in engine_names]
        report.steps.append(
            StepReport(
                "test-generation",
                time.perf_counter() - started,
                {"tests": tests},
            )
        )

        # Step 4: Execution — the plan's tasks on the plan's runner
        # options (repeats on fresh engines, fanned out over the spec's
        # executor backend).  The runner binds each test, but the data
        # set is served from the dataset cache warmed by step 2 (a
        # process pool's workers start with it), so generation happens
        # once for the whole run.
        started = time.perf_counter()
        runner = TestRunner(
            test_generator=self.test_generator, options=plan.options
        )
        cache_before = self.test_generator.dataset_cache.stats()
        with tracer.span("execution", executor=spec.executor):
            try:
                outcomes = runner.run_many(plan.tasks)
            finally:
                runner.close()
        if "model" in generation_detail:
            # On each outcome too, so ``run --json`` and the run store
            # can tell a run that paid for the fit from one that did not.
            for outcome in outcomes:
                outcome.extra["model"] = dict(generation_detail["model"])
        report.outcomes = outcomes
        failures = report.failures
        execution_detail: dict[str, Any] = {
            "runs": spec.repeats * len(engine_names),
            "executor": spec.executor,
            "layout": spec.layout,
        }
        if failures:
            # The captured per-task failure records (submission order):
            # what failed, why, and how many attempts the retry policy
            # spent — the audit trail of a degraded-but-complete run.
            execution_detail["failures"] = [
                failure.as_dict() for failure in failures
            ]
        # This run's delta, not process-lifetime totals: earlier runs
        # through the same framework must not inflate it.
        execution_detail["dataset_cache"] = runner.cache_delta(
            cache_before, outcomes
        ).as_dict()
        report.steps.append(
            StepReport(
                "execution",
                time.perf_counter() - started,
                execution_detail,
            )
        )

        # Step 5: Analysis & Evaluation — rank engines on the lead metric.
        started = time.perf_counter()
        with tracer.span("analysis-evaluation"):
            analysis: dict[str, Any] = {}
            if metric_names and report.results:
                lead = metric_names[0]
                ranking = report.analyzer.ranking(lead)
                analysis["lead_metric"] = lead
                analysis["ranking"] = [
                    (result.engine, result.mean(lead))
                    for result in ranking
                    if lead in result.metrics
                ]
            if plan.store_dir is not None:
                from repro.analysis.store import RunStore

                store = RunStore(plan.store_dir)
                report.record_ids = [
                    record.record_id
                    for record in record_outcomes(
                        store, plan.tasks, outcomes, plan.options
                    )
                ]
                analysis["recorded"] = {
                    "store": str(store.path),
                    "record_ids": list(report.record_ids),
                }
        report.steps.append(
            StepReport(
                "analysis-evaluation", time.perf_counter() - started, analysis
            )
        )
        return report
