"""Spec → plan: the one seam between Figure 2's user-interface layer
and its execution layer.

A :class:`~repro.core.spec.BenchmarkSpec` says *what* to benchmark;
:func:`resolve` decides, once and for every consumer, *how* that runs:
which engines, under which :class:`RunnerOptions`, built from which
:class:`~repro.execution.config.SystemConfiguration`, recorded under
which series annotation.  The five-step process, the service
orchestrator, both ablation back ends and the load targets all call
:func:`resolve` / :func:`engine_configuration` and nothing else, so one
spec means one engine configuration, one set of deterministic metrics
and one series key on every path.

The rules (DESIGN "spec → plan"):

1. An engine is the **bare registry engine** plus layout options plus
   tuning-profile knobs plus the latency fault, carried on the task as
   its ``configuration``; there is no other way to configure one.
2. The **series key is a function of the request**: the requested
   ``layout`` and the profile's ``fingerprint()`` travel on each
   :class:`RunTask` as its ``series`` annotation (keywords of
   :func:`~repro.analysis.store.spec_fingerprint`, which drops the
   row/normal defaults so historical keys stay byte-identical).  What
   an engine reports having executed (``result.extra["layout"]``)
   never feeds the key.
3. ``check_format`` is off: the spec was validated at planning.
4. Records are written in submission (task) order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.store import resolve_store_dir
from repro.core.prescription import Prescription, PrescriptionRepository
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
    profiles: dict[str, TuningProfile] | None = None,
    store_dir: str | None = None,
) -> ExecutionPlan:
    """Resolve a (validated) spec into its execution plan.  Pure.

    ``profiles`` maps an engine to a profile *object* standing in for
    the name in ``spec.tuning`` (the ablation driver's custom profiles
    have no registered name).  ``store_dir`` is the caller's default
    run-store directory, used when the spec records without naming one.
    """
    prescription = repository.get(spec.prescription)
    engines = tuple(spec.resolved_engines(repository))
    tasks = []
    for engine in engines:
        profile = (profiles or {}).get(engine) or get_profile(
            engine, spec.tuning
        )
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
                series={
                    "layout": spec.layout,
                    "tuning": profile.fingerprint(),
                },
            )
        )
    return ExecutionPlan(
        prescription=prescription,
        engines=engines,
        options=RunnerOptions(
            repeats=spec.repeats,
            check_format=False,
            executor=spec.executor,
            max_workers=spec.max_workers,
            on_error=spec.on_error,
            retries=spec.retries,
            retry_backoff=spec.retry_backoff,
            task_timeout=spec.task_timeout,
        ),
        tasks=tuple(tasks),
        store_dir=(
            resolve_store_dir(spec.store_dir or store_dir)
            if spec.should_record
            else None
        ),
    )

