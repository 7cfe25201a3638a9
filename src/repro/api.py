"""The one blessed public surface of the framework.

Everything a system owner needs, in one flat namespace::

    from repro.api import BenchmarkSpec, ServiceClient, run, sweep, compare, gate

* :class:`BenchmarkSpec` — what to benchmark (versioned, serializable);
* :func:`run` — one spec through the five-step process, synchronously;
* :func:`sweep` — a prescription across volumes or parameter values;
* :class:`ServiceClient` / :func:`serve` — submit, watch, fetch, and
  cancel jobs against the async orchestrator (benchmark as a service);
* :func:`compare` — statistical comparison of two recorded runs;
* :func:`gate` — regression gate against a promoted baseline;
* :func:`load` — controllable-velocity load generation: drive a
  workload, the service, or a synthetic model at a target rate and
  judge the run against an SLO policy;
* :func:`ablate` — a workload × engine × tuning-profile ablation
  matrix (normal vs optimized vs per-knob one-offs) with statistical
  verdicts and a per-knob attribution table.

These names are the supported API.  Deeper modules
(:mod:`repro.execution`, :mod:`repro.engines`, :mod:`repro.datagen`,
...) remain importable for extension work, but scattered ad-hoc entry
points are deprecated in favor of this facade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro._lazy import lazy_exports
from repro.analysis.compare import DEFAULT_TOLERANCE, compare_records
from repro.analysis.store import RunRecord, RunStore, resolve_store_dir

if TYPE_CHECKING:
    from repro.analysis.compare import Comparison
    from repro.analysis.gate import GateReport
    from repro.core.prescription import PrescriptionRepository
    from repro.core.process import ProcessReport
    from repro.core.spec import BenchmarkSpec
    from repro.execution.harness import SweepReport
    from repro.loadgen.runner import LoadReport
    from repro.loadgen.slo import SLOPolicy
    from repro.observability.tracing import Tracer
    from repro.service.client import ServiceClient
    from repro.tuning.ablate import AblationReport

# The names this facade re-exports but does not define; each function
# below imports what it calls when it is called, so `compare` and `gate`
# never load the runner, the service or the load generator.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.baselines": ("BaselineManager",),
        "repro.analysis.compare": ("Comparison",),
        "repro.analysis.gate": ("GateReport",),
        "repro.core.process": ("ProcessReport",),
        "repro.core.spec": ("SPEC_VERSION", "BenchmarkSpec"),
        "repro.execution.harness": ("SweepReport",),
        "repro.loadgen.runner": ("LoadPlan", "LoadReport", "LoadRunner"),
        "repro.loadgen.slo": ("SLOPolicy", "SLOVerdict"),
        "repro.service.client": ("JobHandle", "ServiceClient"),
        "repro.service.jobs": ("Job",),
        "repro.service.orchestrator": ("Orchestrator",),
        "repro.service.queue": ("AdmissionError",),
    },
)
__all__ += [
    "RunRecord", "RunStore", "ablate", "compare", "gate", "load", "run",
    "serve", "sweep",
]


def run(
    spec: BenchmarkSpec | str,
    *,
    repository: PrescriptionRepository | None = None,
    tracer: Tracer | None = None,
    **options: Any,
) -> ProcessReport:
    """Run one benchmark through the five-step process, synchronously.

    ``spec`` is a :class:`BenchmarkSpec` or a prescription name (with
    spec fields as keyword ``options``).  Returns the full
    :class:`~repro.core.process.ProcessReport` audit trail.  For async
    submission, quotas, and job lifecycles, use :class:`ServiceClient`.
    """
    from repro._util import collector_paused
    from repro.core.layers import BigDataBenchmark

    # The pause outlives the framework: its data set is freed by
    # reference count before the collector resumes (DESIGN §3.21).
    with collector_paused():
        return BigDataBenchmark(repository=repository).run(
            spec, tracer=tracer, **options
        )


def sweep(
    prescription: str,
    engine: str,
    *,
    volumes: list[int] | None = None,
    parameter: str | None = None,
    values: list[Any] | None = None,
    layout: str = "row",
    repository: PrescriptionRepository | None = None,
    **overrides: Any,
) -> SweepReport:
    """Sweep one prescription on one engine across volumes or a parameter.

    Exactly one axis: pass ``volumes=[...]`` for a volume sweep, or
    ``parameter="name", values=[...]`` for a workload-parameter sweep.
    ``layout="columnar"`` runs every point of a DBMS sweep through its
    batch-at-a-time columnar operators (other engines ignore it).
    Extra keyword arguments are fixed workload overrides applied to
    every point.  Each point is a validated one-engine
    :class:`BenchmarkSpec` resolved like :func:`run`'s; all points run
    in one batch on one runner with the plan's options.
    """
    from repro._util import collector_paused
    from repro.core.errors import SpecError
    from repro.core.prescription import builtin_repository
    from repro.core.spec import BenchmarkSpec
    from repro.core.test_generator import TestGenerator
    from repro.execution.harness import SweepPoint, SweepReport
    from repro.execution.plan import resolve
    from repro.execution.runner import TestRunner

    by_volume = volumes is not None
    if (parameter is None, values is None) != (by_volume, by_volume):
        raise SpecError(
            "sweep needs exactly one axis: volumes=[...], or "
            "parameter=... with values=[...]"
        )
    axis = "volume" if by_volume else parameter
    points = list(volumes if by_volume else values)
    repository = repository or builtin_repository()
    plans = []
    for value in points:
        spec = BenchmarkSpec(
            prescription,
            engines=[engine],
            volume=value if by_volume else None,
            params=dict(overrides) if by_volume else {**overrides, axis: value},
            layout=layout,
        )
        spec.validate(repository)
        plans.append(resolve(spec, repository))
    report = SweepReport(axis)
    if not plans:
        return report
    # The pause outlives the runner: the data sets its cache holds are
    # freed by reference count before the collector resumes (DESIGN
    # §3.21).
    with collector_paused():
        with TestRunner(TestGenerator(repository), plans[0].options) as runner:
            outcomes = runner.run_many(
                [task for plan in plans for task in plan.tasks]
            )
        del runner
    report.points = [
        SweepPoint(axis, value, outcome)
        for value, outcome in zip(points, outcomes)
    ]
    return report


def compare(
    baseline: str | RunRecord,
    candidate: str | RunRecord,
    *,
    store_dir: str | None = None,
    metrics: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    **options: Any,
) -> Comparison:
    """Statistically compare two recorded runs from the run store.

    ``baseline``/``candidate`` are store references (record id, unique
    prefix, series key, or ``"latest"``) or already-loaded records.
    """
    store = RunStore(resolve_store_dir(store_dir))
    references = (baseline, candidate)
    # One read of the store resolves both references.
    records = (
        []
        if all(isinstance(ref, RunRecord) for ref in references)
        else store.records()
    )
    baseline_record, candidate_record = (
        ref if isinstance(ref, RunRecord) else store._resolve(ref, records)
        for ref in references
    )
    return compare_records(
        baseline_record,
        candidate_record,
        metrics=metrics,
        tolerance=tolerance,
        **options,
    )


def gate(
    baseline: str,
    candidate: str | RunRecord | None = None,
    *,
    store_dir: str | None = None,
    metrics: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    **options: Any,
) -> GateReport:
    """Check a candidate run against a promoted baseline (CI gate).

    ``baseline`` is a baseline *name* (see
    :class:`~repro.analysis.baselines.BaselineManager`); the report's
    ``exit_code`` is 0 on pass, 1 on regression.
    """
    from repro.analysis.gate import check_regressions

    store = RunStore(resolve_store_dir(store_dir))
    return check_regressions(
        store,
        baseline,
        candidate,
        metrics=metrics,
        tolerance=tolerance,
        **options,
    )


def load(
    prescription: str | None = None,
    *,
    arrival: str = "poisson",
    rate: float = 100.0,
    duration: float = 10.0,
    sessions: int = 0,
    think_time: float = 0.0,
    seed: int = 0,
    clock: str = "virtual",
    concurrency: int = 4,
    queue_capacity: int = 64,
    engine: str | None = None,
    volume: int | None = None,
    params: dict[str, Any] | None = None,
    layout: str = "row",
    service: bool = False,
    schedulers: int = 2,
    mean_service: float = 0.005,
    service_distribution: str = "lognormal",
    slo: SLOPolicy | None = None,
    record: bool = False,
    store_dir: str | None = None,
    repository: PrescriptionRepository | None = None,
    tracer: Tracer | None = None,
    **arrival_options: Any,
) -> LoadReport:
    """Drive a target at a controlled rate and judge it against an SLO.

    The target is a seeded synthetic service-time model by default
    (fully deterministic on the virtual clock: same seed → same
    verdict), a prescribed workload when ``prescription`` is given, or
    the benchmark service when ``service=True``.  ``sessions > 0``
    switches from the open-loop ``arrival`` schedule to the closed-loop
    session model.  With ``record=True`` the report lands in the run
    store as its own comparable series.  ``slo=None`` judges against
    the stock :class:`~repro.loadgen.SLOPolicy` budgets.
    """
    from repro.core.spec import BenchmarkSpec
    from repro.loadgen.runner import LoadPlan, LoadRunner
    from repro.loadgen.slo import SLOPolicy
    from repro.loadgen.targets import (
        ServiceTarget,
        SyntheticTarget,
        WorkloadTarget,
    )

    # One spec for a named prescription, whichever target runs it; a
    # service without one keeps ServiceTarget's stock spec.
    spec = None
    if prescription is not None:
        spec = BenchmarkSpec(
            prescription,
            engines=[engine] if engine else [],
            volume=volume,
            params=dict(params or {}),
            layout=layout,
        )
    if service:
        target: Any = ServiceTarget(
            spec,
            store_dir=store_dir,
            schedulers=schedulers,
            repository=repository,
        )
    elif spec is not None:
        target = WorkloadTarget(spec, repository=repository)
    else:
        target = SyntheticTarget(
            mean_service=mean_service,
            distribution=service_distribution,
        )
    plan = LoadPlan(
        arrival=arrival,
        rate=rate,
        duration=duration,
        sessions=sessions,
        think_time=think_time,
        seed=seed,
        arrival_options=arrival_options,
    )
    runner = LoadRunner(
        target,
        clock=clock,
        concurrency=concurrency,
        queue_capacity=queue_capacity,
        tracer=tracer,
    )
    store = RunStore(resolve_store_dir(store_dir)) if record else None
    return runner.run(plan, slo=slo or SLOPolicy(), store=store)


def ablate(
    workloads: Any,
    engines: Any = None,
    **options: Any,
) -> AblationReport:
    """Run a tuning-ablation matrix with statistical verdicts.

    Expands workload × engine × {normal, optimized, per-knob one-off},
    runs every supported cell through the harness (recording each into
    the run store under a tuning-aware fingerprint), and judges every
    tuned cell against its normal baseline with bootstrap CIs and the
    Mann–Whitney test.  Returns an
    :class:`~repro.tuning.ablate.AblationReport`; render it with
    :func:`repro.tuning.render_ablation`.  Keyword ``options`` mirror
    :func:`repro.tuning.ablate.run_ablation` (``repeats``, ``seed``,
    ``layout``, ``alpha``, ...).
    """
    from repro._util import collector_paused
    from repro.tuning.ablate import run_ablation

    # The pause outlives the matrix's runner, as in :func:`run`.
    with collector_paused():
        return run_ablation(workloads, engines, **options)


def serve(**options: Any) -> ServiceClient:
    """Start a benchmark service and return its client.

    Keyword arguments configure the underlying
    :class:`~repro.service.Orchestrator` (``schedulers``, ``store_dir``,
    ``queue``, ``tracer``, ...).  Use as a context manager so queued
    jobs drain on exit::

        with serve(schedulers=4) as client:
            handle = client.submit("micro-wordcount")
    """
    from repro.service.client import ServiceClient

    return ServiceClient(**options)

