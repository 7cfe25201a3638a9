"""Spec → plan: the one seam between Figure 2's user-interface layer
and its execution layer.

A :class:`~repro.core.spec.BenchmarkSpec` says *what* to benchmark;
:func:`resolve` decides, once and for every consumer, *how* that runs:
which engines, under which :class:`RunnerOptions`, built from which
:class:`~repro.execution.config.SystemConfiguration`, recorded under
which series annotation.  Every door builds a spec and takes its tasks
from :func:`resolve`: the five-step process, the service orchestrator,
the ablation, ``api.sweep`` and the workload load target, and a
:class:`~repro.execution.runner.TestRunner` runs nothing but those
tasks (``run_many``).  ``RunTask(`` and :func:`engine_configuration`
are called in this module only, so one spec means one engine
configuration, one set of deterministic metrics and one series key on
every path.

The rules (DESIGN "spec → plan"):

1. An engine is the **bare registry engine** plus layout options plus
   tuning-profile knobs plus the latency fault, carried on the task as
   its ``configuration``; there is no other way to configure one, and
   ``TestGenerator.build_engine`` is the one recipe that builds it.
2. The **series key is a function of the request**: the requested
   ``layout``, the profile's ``fingerprint()`` and the generation
   version of the prescription's data generator (only when it declares
   one, :func:`generation_version`) travel on each :class:`RunTask` as
   its ``series`` annotation (keywords of
   :func:`~repro.analysis.store.spec_fingerprint`, which drops the
   row/normal defaults so historical keys stay byte-identical).  What
   an engine reports having executed (``result.extra["layout"]``)
   never feeds the key.
3. :func:`runner_options` is the one place a spec becomes
   :class:`RunnerOptions`.
4. Records are written in submission (task) order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.store import resolve_store_dir
from repro.core.prescription import Prescription, PrescriptionRepository
from repro.core.registry import generators
from repro.core.spec import BenchmarkSpec
from repro.engines.faults import FaultSpec
from repro.execution.config import SystemConfiguration, layout_options
from repro.execution.runner import RunnerOptions, RunTask
from repro.tuning.profiles import TuningProfile, get_profile


def engine_configuration(
    engine: str,
    layout: str = "row",
    profile: TuningProfile | None = None,
    inject_latency: float | None = None,
) -> SystemConfiguration | None:
    """How to build ``engine`` for a request, or None for the bare engine.

    Layout options first, then the profile's knobs (the profile wins on
    conflict), then a fault stalling every execution by
    ``inject_latency`` seconds.  None is load-bearing: a bare registry
    engine is exactly what every historical normal/row run used, so
    that case must not wrap the engine in an (empty) configuration.
    """
    options = dict(layout_options(layout).get(engine, {}))
    if profile is not None:
        options.update(profile.knobs)
    if not options and not inject_latency:
        return None
    return SystemConfiguration(
        engine,
        options=options,
        label=f"{engine} ({layout}, {profile.name if profile else 'normal'})",
        fault=(
            FaultSpec(latency_rate=1.0, latency_seconds=inject_latency)
            if inject_latency
            else None
        ),
    )


def generation_version(generator: str) -> int | None:
    """What the named data generator declares
    (:attr:`~repro.datagen.base.DataGenerator.generation_version`).
    None for a generator that declares none and for a name the registry
    does not know (the data step reports that one)."""
    if generator not in generators:
        return None
    return getattr(generators.create(generator), "generation_version", None)


def runner_options(spec: BenchmarkSpec) -> RunnerOptions:
    """The runner policy ``spec`` asks for; ``spec.validate`` checks it here."""
    return RunnerOptions(
        repeats=spec.repeats,
        executor=spec.executor,
        max_workers=spec.max_workers,
        on_error=spec.on_error,
        retries=spec.retries,
        retry_backoff=spec.retry_backoff,
        task_timeout=spec.task_timeout,
    )


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the execution layer needs to run one spec."""

    prescription: Prescription
    #: The resolved engine names, one task each, in run order.
    engines: tuple[str, ...]
    options: RunnerOptions
    tasks: tuple[RunTask, ...]
    #: Where outcomes are recorded; None when the spec does not record.
    store_dir: str | None


def resolve(
    spec: BenchmarkSpec,
    repository: PrescriptionRepository,
    *,
    store_dir: str | None = None,
) -> ExecutionPlan:
    """Resolve a (validated) spec into its execution plan.  Pure.

    Each engine's profile is the built-in one ``spec.tuning`` names.
    ``store_dir`` is the caller's default run-store directory, used
    when the spec records without naming one.
    """
    prescription = repository.get(spec.prescription)
    engines = tuple(spec.resolved_engines(repository))
    generation = generation_version(prescription.data.generator)
    tasks = []
    for engine in engines:
        profile = get_profile(engine, spec.tuning)
        series = {"layout": spec.layout, "tuning": profile.fingerprint()}
        if generation is not None:
            series["generation"] = generation
        tasks.append(
            RunTask(
                prescription,
                engine,
                spec.volume,
                dict(spec.params),
                configuration=engine_configuration(
                    engine, spec.layout, profile, spec.inject_latency
                ),
                data_partitions=(
                    spec.data_partitions if spec.data_partitions > 1 else None
                ),
                chunk_size=spec.chunk_size,
                series=series,
            )
        )
    return ExecutionPlan(
        prescription=prescription,
        engines=engines,
        options=runner_options(spec),
        tasks=tuple(tasks),
        store_dir=(
            resolve_store_dir(spec.store_dir or store_dir)
            if spec.should_record
            else None
        ),
    )

