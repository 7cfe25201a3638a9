"""Ablation driver: workload × engine × tuning-profile matrices.

Expands a matrix of cells — every requested workload on every requested
engine under ``normal``, ``optimized``, and (optionally) each per-knob
one-off profile — runs the whole batch through the existing harness
stack (:class:`~repro.execution.runner.TestRunner`, warm pools,
``--layout`` included), records every cell into the
:class:`~repro.analysis.store.RunStore` under a tuning-aware
fingerprint, and judges each tuned cell against its normal baseline
with the bootstrap-CI + Mann–Whitney machinery of
:mod:`repro.analysis.compare`.

The output is an :class:`AblationReport`: the raw cells (each carrying
its run-store record id and series key), a verdict table (improved /
regressed / unchanged / inconclusive per tuned profile), and a
per-knob attribution table built from the one-off profiles — each row
isolating one knob's contribution to the optimized delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.analysis.compare import (
    DEFAULT_ALPHA,
    DEFAULT_TOLERANCE,
    Comparison,
    compare_records,
)
from repro.core.errors import AnalysisError, TuningError
from repro.tuning.profiles import (
    ONE_OFF_PREFIX,
    TuningProfile,
    normal,
    one_off_profiles,
    optimized,
)

#: Short spellings accepted by ``--workloads`` alongside full
#: prescription names (the paper's workload classes, Table 1).
WORKLOAD_ALIASES: dict[str, str] = {
    "relational": "database-aggregate-join",
    "micro": "micro-wordcount",
    "oltp": "oltp-read-write",
    "realtime": "realtime-windowed-aggregation",
}

#: Default engine pair for an ablation matrix: the two substrates the
#: paper contrasts most directly (DBMS vs MapReduce, Table 2).
DEFAULT_ENGINES = ("dbms", "mapreduce")


def _tokens(value: str | Iterable[str]) -> list[str]:
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = list(value)
    tokens = [part.strip() for part in parts if part and part.strip()]
    if not tokens:
        raise TuningError("no workloads requested")
    return tokens


def resolve_workloads(
    workloads: str | Iterable[str], repository: Any = None
) -> list[str]:
    """Resolve workload tokens to prescription names.

    Accepts exact prescription names, the aliases in
    :data:`WORKLOAD_ALIASES` (``relational``, ``micro``, ...), and any
    unambiguous prescription-name prefix.  Raises
    :class:`~repro.core.errors.TuningError` for unknown or ambiguous
    tokens.
    """
    if repository is None:
        from repro.core.prescription import builtin_repository

        repository = builtin_repository()
    names = repository.names()
    resolved: list[str] = []
    for token in _tokens(workloads):
        if token in names:
            name = token
        elif token in WORKLOAD_ALIASES:
            name = WORKLOAD_ALIASES[token]
        else:
            matches = [n for n in names if n.startswith(token)]
            if len(matches) == 1:
                name = matches[0]
            elif matches:
                raise TuningError(
                    f"ambiguous workload {token!r}: matches {matches}"
                )
            else:
                raise TuningError(
                    f"unknown workload {token!r}; available: {names} "
                    f"(aliases: {sorted(WORKLOAD_ALIASES)})"
                )
        if name not in resolved:
            resolved.append(name)
    return resolved


def _resolve_engines(engines: str | Iterable[str] | None) -> list[str]:
    if engines is None:
        return list(DEFAULT_ENGINES)
    from repro.core import registry

    known = registry.engines.names()
    resolved: list[str] = []
    for token in _tokens(engines):
        if token not in known:
            raise TuningError(
                f"unknown engine {token!r}; available: {sorted(known)}"
            )
        if token not in resolved:
            resolved.append(token)
    return resolved


# ---------------------------------------------------------------------------
# Report structures
# ---------------------------------------------------------------------------


@dataclass
class AblationCell:
    """One (workload, engine, profile) point of the matrix."""

    prescription: str
    workload: str
    engine: str
    profile: TuningProfile
    #: False when the workload does not run on this engine at all; the
    #: cell is kept (so the report shows the hole) but never executed.
    supported: bool = True
    outcome: Any = None  # RunResult | TaskFailure | None
    record_id: str | None = None
    series: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.supported
            and self.outcome is not None
            and getattr(self.outcome, "ok", False)
        )

    @property
    def status(self) -> str:
        if not self.supported:
            return "unsupported"
        if self.outcome is None:
            return "skipped"
        return "ok" if self.ok else "failed"

    def mean(self, metric: str) -> float | None:
        if not self.ok:
            return None
        try:
            return self.outcome.mean(metric)
        except Exception:
            return None

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "prescription": self.prescription,
            "workload": self.workload,
            "engine": self.engine,
            "profile": self.profile.name,
            "knobs": dict(self.profile.knobs),
            "status": self.status,
        }
        if self.record_id:
            payload["record_id"] = self.record_id
        if self.series:
            payload["series"] = self.series
        if self.outcome is not None:
            payload["outcome"] = self.outcome.as_dict()
        return payload


@dataclass
class AblationVerdict:
    """One tuned profile judged against its normal baseline."""

    prescription: str
    engine: str
    profile: str
    metric: str
    comparison: Comparison

    @property
    def lead(self) -> Any:
        """The :class:`~repro.analysis.compare.MetricComparison` of the
        lead metric (None if the comparison could not cover it)."""
        return self.comparison.metrics.get(self.metric)

    @property
    def verdict(self) -> str:
        lead = self.lead
        return lead.verdict if lead is not None else "inconclusive"

    @property
    def overall(self) -> str:
        return self.comparison.overall

    def as_dict(self) -> dict[str, Any]:
        return {
            "prescription": self.prescription,
            "engine": self.engine,
            "profile": self.profile,
            "metric": self.metric,
            "verdict": self.verdict,
            "overall": self.overall,
            "comparison": self.comparison.as_dict(),
        }


@dataclass
class AblationReport:
    """Everything one ablation run produced."""

    cells: list[AblationCell] = field(default_factory=list)
    verdicts: list[AblationVerdict] = field(default_factory=list)
    #: Per-knob attribution rows (one per one-off profile cell).
    attribution: list[dict[str, Any]] = field(default_factory=list)
    store_dir: str = ""
    repeats: int = 1
    seed: int = 0
    layout: str = "row"
    tolerance: float = DEFAULT_TOLERANCE
    alpha: float = DEFAULT_ALPHA

    def cell(
        self, prescription: str, engine: str, profile: str
    ) -> AblationCell | None:
        for cell in self.cells:
            if (
                cell.prescription == prescription
                and cell.engine == engine
                and cell.profile.name == profile
            ):
                return cell
        return None

    def verdict_for(
        self, prescription: str, engine: str, profile: str
    ) -> AblationVerdict | None:
        for verdict in self.verdicts:
            if (
                verdict.prescription == prescription
                and verdict.engine == engine
                and verdict.profile == profile
            ):
                return verdict
        return None

    def counts(self) -> dict[str, int]:
        """Verdict histogram over the tuned cells."""
        table: dict[str, int] = {}
        for verdict in self.verdicts:
            table[verdict.verdict] = table.get(verdict.verdict, 0) + 1
        return table

    def matrix_rows(self) -> list[dict[str, Any]]:
        rows = []
        for cell in self.cells:
            row: dict[str, Any] = {
                "workload": cell.prescription,
                "engine": cell.engine,
                "profile": cell.profile.name,
                "status": cell.status,
                "record": cell.record_id or "-",
                "series": cell.series or "-",
            }
            rows.append(row)
        return rows

    def verdict_rows(self) -> list[dict[str, Any]]:
        rows = []
        for verdict in self.verdicts:
            lead = verdict.lead
            row: dict[str, Any] = {
                "workload": verdict.prescription,
                "engine": verdict.engine,
                "profile": verdict.profile,
                "metric": verdict.metric,
                "delta": (
                    f"{lead.relative_delta:+.1%}" if lead is not None else "-"
                ),
                _ci_column(self.alpha): _format_ci(lead),
                "p": (
                    f"{lead.p_value:.4f}"
                    if lead is not None and lead.p_value is not None
                    else "-"
                ),
                "verdict": verdict.verdict,
                "baseline": verdict.comparison.baseline,
                "candidate": verdict.comparison.candidate,
            }
            rows.append(row)
        return rows

    def attribution_rows(self) -> list[dict[str, Any]]:
        return [dict(row) for row in self.attribution]

    def as_dict(self) -> dict[str, Any]:
        return {
            "store_dir": self.store_dir,
            "repeats": self.repeats,
            "seed": self.seed,
            "layout": self.layout,
            "tolerance": self.tolerance,
            "alpha": self.alpha,
            "counts": self.counts(),
            "cells": [cell.as_dict() for cell in self.cells],
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "attribution": self.attribution_rows(),
        }


def _ci_column(alpha: float) -> str:
    """The interval column's name: the interval is taken at ``1 - alpha``,
    so ``ci95`` at the default alpha."""
    return f"ci{100 * (1 - alpha):g}"


def _format_ci(lead: Any) -> str:
    if lead is None or lead.ci_low is None or lead.ci_high is None:
        return "-"
    return f"[{lead.ci_low:+.1%}, {lead.ci_high:+.1%}]"


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------


def _profiles_for(engine: str, include_one_offs: bool) -> list[TuningProfile]:
    """The profile column for one engine: normal first, then tuned.

    Every profile is a built-in one: normal + optimized (+ per-knob
    one-offs), each resolvable by name.  An optimized profile equal to
    normal (e.g. streaming) is dropped — running it would double-count
    the baseline series under a second label.
    """
    column = [normal(engine)]
    tuned = optimized(engine)
    if not tuned.is_normal:
        column.append(tuned.validate())
        if include_one_offs:
            column.extend(
                profile.validate() for profile in one_off_profiles(engine)
            )
    return column


def _build_cells(
    prescription_names: list[str],
    engine_names: list[str],
    include_one_offs: bool,
    repository: Any,
) -> list[AblationCell]:
    from repro.core import registry

    cells: list[AblationCell] = []
    for name in prescription_names:
        prescription = repository.get(name)
        workload = registry.workloads.create(prescription.workload)
        for engine in engine_names:
            if not workload.supports(engine):
                # One unsupported marker per (workload, engine) hole.
                cells.append(
                    AblationCell(
                        name,
                        prescription.workload,
                        engine,
                        normal(engine),
                        supported=False,
                    )
                )
                continue
            for profile in _profiles_for(engine, include_one_offs):
                cells.append(
                    AblationCell(name, prescription.workload, engine, profile)
                )
    return cells


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _cell_spec(base: Any, cell: AblationCell) -> Any:
    """The base spec narrowed to one cell of the matrix."""
    return replace(
        base,
        prescription=cell.prescription,
        engines=[cell.engine],
        tuning=cell.profile.name,
    )


def _run_cells(cells: list[AblationCell], base: Any, repository: Any) -> None:
    from repro.analysis.store import RunStore
    from repro.core.test_generator import TestGenerator
    from repro.execution.plan import resolve
    from repro.execution.runner import TestRunner, record_outcomes

    if not cells:
        return
    plans = [resolve(_cell_spec(base, cell), repository) for cell in cells]
    runner = TestRunner(
        test_generator=TestGenerator(repository), options=plans[0].options
    )
    tasks = [task for plan in plans for task in plan.tasks]
    with runner:
        outcomes = runner.run_many(tasks)
    record_outcomes(RunStore(plans[0].store_dir), tasks, outcomes, runner.options)
    for cell, outcome in zip(cells, outcomes):
        cell.outcome = outcome


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_ablation(
    workloads: str | Iterable[str],
    engines: str | Iterable[str] | None = None,
    *,
    repeats: int = 5,
    volume: int | None = None,
    seed: int = 0,
    params: dict[str, Any] | None = None,
    layout: str = "row",
    executor: str = "serial",
    max_workers: int | None = None,
    chunk_size: int | None = None,
    include_one_offs: bool = True,
    metrics: list[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    alpha: float = DEFAULT_ALPHA,
    store_dir: str | None = None,
    repository: Any = None,
) -> AblationReport:
    """Run a tuning-ablation matrix and judge every tuned cell.

    Every executed cell is recorded into the run store (ablations are
    about comparable evidence, so recording is not optional); the
    returned report carries each cell's record id and series key, the
    verdict table, and the per-knob attribution rows.

    The lead metric per workload is ``metrics[0]`` when given, else the
    prescription's first declared metric, else ``duration``.  Verdicts
    come from :func:`repro.analysis.compare.compare_records` with the
    given ``tolerance``/``alpha`` and the seeded bootstrap, so the same
    matrix at the same seed renders byte-identical verdicts.
    """
    from repro.analysis.store import (
        RECORD_ID_EXTRA_KEY,
        RunStore,
        resolve_store_dir,
    )
    from repro.core.spec import BenchmarkSpec

    if repository is None:
        from repro.core.prescription import builtin_repository

        repository = builtin_repository()
    prescription_names = resolve_workloads(workloads, repository)
    engine_names = _resolve_engines(engines)
    cells = _build_cells(
        prescription_names, engine_names, include_one_offs, repository
    )
    runnable = [cell for cell in cells if cell.supported]
    resolved_dir = resolve_store_dir(store_dir)
    store = RunStore(resolved_dir)

    # One base spec for the whole matrix; each cell narrows it to its
    # prescription, engine and profile.  A failing cell must not abort
    # the matrix, and every cell is recorded.
    base = BenchmarkSpec(
        prescription=prescription_names[0],
        volume=volume,
        repeats=repeats,
        params={"seed": seed, **(params or {})},
        executor=executor,
        max_workers=max_workers,
        chunk_size=chunk_size,
        on_error="continue",
        layout=layout,
        record=True,
        store_dir=resolved_dir,
    )
    _run_cells(runnable, base, repository)

    # One read of the store for the whole matrix, after every cell ran.
    series_of = {record.record_id: record.series for record in store.records()}
    for cell in runnable:
        if cell.outcome is None:
            continue
        record_id = cell.outcome.extra.get(RECORD_ID_EXTRA_KEY)
        if record_id:
            if record_id not in series_of:
                raise AnalysisError(
                    f"ablation cell {cell.prescription}/{cell.engine}/"
                    f"{cell.profile.name} was recorded as {record_id!r}, "
                    f"which run store {store.path} does not hold"
                )
            cell.record_id = record_id
            cell.series = series_of[record_id]

    report = AblationReport(
        cells=cells,
        store_dir=resolved_dir,
        repeats=repeats,
        seed=seed,
        layout=layout,
        tolerance=tolerance,
        alpha=alpha,
    )
    _judge(report, prescription_names, engine_names, repository, metrics)
    return report


def _lead_metric(
    metrics: list[str] | None, prescription: Any
) -> str:
    if metrics:
        return metrics[0]
    if prescription.metric_names:
        return prescription.metric_names[0]
    return "duration"


def _judge(
    report: AblationReport,
    prescription_names: list[str],
    engine_names: list[str],
    repository: Any,
    metrics: list[str] | None,
) -> None:
    for name in prescription_names:
        prescription = repository.get(name)
        lead = _lead_metric(metrics, prescription)
        compared = metrics or [lead]
        for engine in engine_names:
            base = report.cell(name, engine, "normal")
            if base is None or not base.ok:
                continue
            for cell in report.cells:
                if (
                    cell.prescription != name
                    or cell.engine != engine
                    or cell.profile.is_normal
                    or not cell.ok
                ):
                    continue
                comparison = compare_records(
                    base.outcome,
                    cell.outcome,
                    metrics=compared,
                    tolerance=report.tolerance,
                    alpha=report.alpha,
                    seed=report.seed,
                )
                comparison.baseline = base.record_id or comparison.baseline
                comparison.candidate = (
                    cell.record_id or comparison.candidate
                )
                verdict = AblationVerdict(
                    name, engine, cell.profile.name, lead, comparison
                )
                report.verdicts.append(verdict)
                if cell.profile.name.startswith(ONE_OFF_PREFIX):
                    knob = cell.profile.name[len(ONE_OFF_PREFIX):]
                    lead_cmp = verdict.lead
                    report.attribution.append(
                        {
                            "workload": name,
                            "engine": engine,
                            "knob": knob,
                            "value": repr(cell.profile.knobs.get(knob)),
                            "metric": lead,
                            "delta": (
                                f"{lead_cmp.relative_delta:+.1%}"
                                if lead_cmp is not None
                                else "-"
                            ),
                            _ci_column(report.alpha): _format_ci(lead_cmp),
                            "p": (
                                f"{lead_cmp.p_value:.4f}"
                                if lead_cmp is not None
                                and lead_cmp.p_value is not None
                                else "-"
                            ),
                            "verdict": verdict.verdict,
                            "record": cell.record_id or "-",
                        }
                    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_ablation(
    report: AblationReport,
    style: str = "ascii",
    metrics: list[str] | None = None,
) -> str:
    """Render a report as an ascii, markdown, or json document.

    The cell-metrics section reuses
    :func:`repro.execution.report.render_results` (the same renderer
    every other verb uses); the verdict and attribution tables are
    ablation-specific.
    """
    if style == "json":
        return json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if style not in ("ascii", "markdown"):
        raise TuningError(
            f"unknown ablation render style {style!r}; "
            "expected one of ('ascii', 'markdown', 'json')"
        )
    from repro.execution.report import (
        ascii_table,
        markdown_table,
        render_results,
    )

    table = ascii_table if style == "ascii" else markdown_table
    heading = (lambda text: text) if style == "ascii" else (
        lambda text: f"## {text}"
    )
    workloads = sorted({cell.prescription for cell in report.cells})
    engines = sorted({cell.engine for cell in report.cells})
    parts: list[str] = [
        f"tuning ablation: {len(workloads)} workload(s) × "
        f"{len(engines)} engine(s), repeats={report.repeats}, "
        f"seed={report.seed}, layout={report.layout}, "
        f"store={report.store_dir}"
    ]
    parts.append(heading("matrix"))
    parts.append(table(report.matrix_rows()))
    outcomes = [cell.outcome for cell in report.cells if cell.outcome]
    if outcomes:
        parts.append(heading("cell metrics"))
        parts.append(render_results(outcomes, style=style, metrics=metrics))
    if report.verdicts:
        parts.append(heading("verdicts (vs normal)"))
        parts.append(table(report.verdict_rows()))
    if report.attribution:
        parts.append(heading("per-knob attribution"))
        parts.append(table(report.attribution_rows()))
    counts = report.counts()
    if counts:
        summary = ", ".join(
            f"{counts[key]} {key}" for key in sorted(counts)
        )
        parts.append(f"verdicts: {summary} "
                     f"(tolerance={report.tolerance:.0%}, "
                     f"alpha={report.alpha})")
    return "\n\n".join(parts)
