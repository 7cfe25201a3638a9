"""Per-layer measurement from outside: wrappers around public callables.

The layers are the program's own modules.  For the traced round only,
:func:`installed` replaces each public callable in :data:`TARGETS` with
a wrapper that records a span (see :mod:`spans`) and, where the call's
arguments or result state a count, that count.  Nothing under ``src/``
is edited.  The originals are put back on exit, and a target that no
longer exists costs one per-layer metric and a one-line warning, not
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from spans import LayerTotals, Recorder, Span, totals_by_name

#: Set on every wrapper, so that a wrapped callable can be told apart.
MARK = "__e2e_wrapped__"

Annotate = Callable[[Span, tuple, dict, Any], None]


def _run_many(span: Span, args: tuple, kwargs: dict, outcomes: Any) -> None:
    span.attrs["tasks"] = len(outcomes)
    span.attrs["task_failures"] = sum(
        1 for outcome in outcomes if not getattr(outcome, "ok", False)
    )


def _workload_run(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["engine"] = result.engine
    span.attrs["operations"] = len(result.latencies)


def _stream_run(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    events = kwargs["events"] if "events" in kwargs else args[2]
    span.attrs["events"] = len(events)


def _generate(span: Span, args: tuple, kwargs: dict, dataset: Any) -> None:
    span.attrs["generator"] = type(args[0]).__name__
    span.attrs["records"] = dataset.num_records


def _fit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["generator"] = type(args[0]).__name__


def _load_run(span: Span, args: tuple, kwargs: dict, report: Any) -> None:
    span.attrs["requests"] = report.offered


def _ablate(span: Span, args: tuple, kwargs: dict, report: Any) -> None:
    span.attrs["cells"] = len(report.cells)


@dataclass(frozen=True)
class Target:
    """One public callable and the span name its calls are recorded under."""

    span: str
    module: str
    #: ``Class.method`` or a module-level function name.
    path: str
    annotate: Annotate | None = None


#: Several callables may share a span name: they are one layer's ways in.
TARGETS = (
    Target("core.validate", "repro.core.spec", "BenchmarkSpec.validate"),
    Target(
        "datagen.select_data",
        "repro.core.test_generator",
        "TestGenerator.select_data",
    ),
    Target(
        "datagen.cache.get", "repro.datagen.cache", "DatasetCache.get_or_generate"
    ),
    Target(
        "execution.run_many",
        "repro.execution.runner",
        "TestRunner.run_many",
        _run_many,
    ),
    Target("execution.close", "repro.execution.runner", "TestRunner.close"),
    Target("workloads.run", "repro.workloads.base", "Workload.run", _workload_run),
    Target("engines.dbms.load", "repro.engines.dbms", "DbmsEngine.load_dataset"),
    Target("engines.dbms.load", "repro.engines.dbms", "DbmsEngine.insert"),
    Target("engines.dbms.execute", "repro.engines.dbms", "DbmsEngine.execute"),
    Target("engines.mapreduce.run", "repro.engines.mapreduce", "MapReduceEngine.run"),
    Target("engines.nosql.load", "repro.engines.nosql", "NoSqlStore.bulk_load"),
    Target("engines.nosql.load", "repro.engines.nosql", "NoSqlStore.insert"),
    Target(
        "engines.streaming.run",
        "repro.engines.streaming",
        "StreamingEngine.run",
        _stream_run,
    ),
    Target("engines.dfs.io", "repro.engines.dfs", "DistributedFileSystem.write_file"),
    Target("engines.dfs.io", "repro.engines.dfs", "DistributedFileSystem.write_stream"),
    Target("engines.dfs.io", "repro.engines.dfs", "DistributedFileSystem.read_file"),
    Target("engines.dfs.io", "repro.engines.dfs", "DistributedFileSystem.append"),
    Target("engines.dfs.io", "repro.engines.dfs", "DistributedFileSystem.delete_file"),
    Target("analysis.store.record", "repro.analysis.store", "RunStore.record_outcome"),
    Target("analysis.store.read", "repro.analysis.store", "RunStore.records"),
    Target("analysis.compare", "repro.analysis.compare", "compare_records"),
    Target("service.submit", "repro.service.orchestrator", "Orchestrator.submit"),
    Target("service.joblog.append", "repro.service.jobs", "JobLog.append"),
    Target("loadgen.run", "repro.loadgen.runner", "LoadRunner.run", _load_run),
    Target("tuning.ablate", "repro.tuning.ablate", "run_ablation", _ablate),
)


@functools.cache
def generator_targets() -> tuple[tuple[Target, ...], dict[str, str]]:
    """``fit``/``generate`` of every registered generator class.

    Also returns class name -> registry name, which is how a span is
    attributed to the generator a prescription names.
    """
    from repro.core import registry

    targets: dict[tuple[str, str], Target] = {}
    names: dict[str, str] = {}
    for name in registry.generators.names():
        cls = type(registry.generators.create(name))
        names.setdefault(cls.__name__, name)
        for method, span, annotate in (
            ("fit", "datagen.fit", _fit),
            ("generate", "datagen.generate", _generate),
            ("generate_parallel", "datagen.generate", _generate),
        ):
            owner = next(
                (base for base in cls.__mro__ if method in vars(base)), None
            )
            if owner is not None:
                path = f"{owner.__name__}.{method}"
                targets.setdefault(
                    (owner.__module__, path),
                    Target(span, owner.__module__, path, annotate),
                )
    return tuple(targets.values()), names


def _wrap(original: Callable, target: Target, recorder: Recorder, warn) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.start(target.span)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.finish(span)
        if target.annotate is not None:
            try:
                target.annotate(span, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError) as error:
                warn(f"{target.span}: count omitted ({error!r})")
        return result

    setattr(wrapper, MARK, True)
    return wrapper


def _wrap_cache_get(original: Callable, target: Target, recorder: Recorder, warn):
    """``get_or_generate`` states hit or miss by whether it calls the factory."""

    @functools.wraps(original)
    def wrapper(self: Any, key: Any, factory: Callable[[], Any]) -> Any:
        span = recorder.start(target.span)

        def counted_factory() -> Any:
            span.attrs["miss"] = True
            return factory()

        try:
            return original(self, key, counted_factory)
        finally:
            recorder.finish(span)

    setattr(wrapper, MARK, True)
    return wrapper


def _holders(target: Target) -> list[tuple[Any, str]]:
    """Every ``(namespace, attribute)`` through which the target is called."""
    module = importlib.import_module(target.module)
    owner_path, _, attribute = target.path.rpartition(".")
    if owner_path:
        owner = module
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        vars(owner)[attribute]  # a KeyError here means "not defined there"
        return [(owner, attribute)]
    function = getattr(module, attribute)
    # ``from m import f`` copies the binding: patch each copy under repro.
    return [
        (holder, attribute)
        for name, holder in list(sys.modules.items())
        if name.split(".")[0] == "repro"
        and vars(holder).get(attribute) is function
    ]


def _all_targets() -> tuple[Target, ...]:
    return TARGETS + generator_targets()[0]


@contextmanager
def installed(recorder: Recorder) -> Iterator[list[str]]:
    """Wrap every target for the duration of the block.

    Yields the list of warnings, one line per target or count that had
    to be left out; it grows while the block runs.
    """
    warnings: list[str] = []

    def warn(message: str) -> None:
        if message not in warnings:
            warnings.append(message)

    patched: list[tuple[Any, str, Any]] = []
    try:
        for target in _all_targets():
            try:
                holders = _holders(target)
            except (ImportError, AttributeError, KeyError):
                warn(
                    f"{target.module}.{target.path} not found: "
                    f"{target.span} omitted"
                )
                continue
            original = vars(holders[0][0])[holders[0][1]]
            make = (
                _wrap_cache_get if target.span == "datagen.cache.get" else _wrap
            )
            wrapper = make(original, target, recorder, warn)
            for holder, attribute in holders:
                setattr(holder, attribute, wrapper)
                patched.append((holder, attribute, original))
        yield warnings
    finally:
        for holder, attribute, original in reversed(patched):
            setattr(holder, attribute, original)


def wrapped_targets() -> list[str]:
    """Targets whose callable is a wrapper right now (none, outside a trace)."""
    found = []
    for target in _all_targets():
        try:
            holders = _holders(target)
        except (ImportError, AttributeError, KeyError):
            continue
        found += [
            f"{target.module}.{target.path}"
            for holder, attribute in holders
            if getattr(vars(holder)[attribute], MARK, False)
        ]
    return found


def require_unwrapped() -> None:
    """Refuse to go on while any target is wrapped (before a timed round)."""
    wrapped = wrapped_targets()
    if wrapped:
        raise RuntimeError(f"wrappers installed outside the traced round: {wrapped}")


# -- spans -> per-layer metrics -----------------------------------------------

#: Span names whose busy time is a metric, ``<span>.busy_s``.
BUSY = (
    "core.validate",
    "datagen.select_data",
    "datagen.fit",
    "datagen.generate",
    "execution.run_many",
    "execution.close",
    "workloads.run",
    "engines.dbms.load",
    "engines.dbms.execute",
    "engines.mapreduce.run",
    "engines.nosql.load",
    "engines.streaming.run",
    "engines.dfs.io",
    "analysis.store.record",
    "analysis.store.read",
    "analysis.compare",
    "service.submit",
    "service.joblog.append",
    "loadgen.run",
    "tuning.ablate",
)
#: Span names whose self time is a metric too, ``<span>.self_s``.
SELF = ("execution.run_many", "workloads.run")
#: metric -> span name whose calls it counts.
CALLS = {
    "engines.dbms.queries": "engines.dbms.execute",
    "engines.mapreduce.jobs": "engines.mapreduce.run",
    "engines.dfs.ops": "engines.dfs.io",
    "service.joblog.appends": "service.joblog.append",
}
#: metric -> (span name, attribute summed over its spans).
SUMS = {
    "execution.tasks": ("execution.run_many", "tasks"),
    "execution.task_failures": ("execution.run_many", "task_failures"),
    "engines.streaming.events": ("engines.streaming.run", "events"),
    "loadgen.requests": ("loadgen.run", "requests"),
    "tuning.ablate.cells": ("tuning.ablate", "cells"),
    "datagen.records": ("datagen.generate", "records"),
}


def layer_metrics(
    recorded: list[Span], observed: dict[str, dict[str, Any]]
) -> dict[str, float]:
    """The traced round's per-layer metrics; a layer that never ran has none.

    ``observed`` is the round's cells as ``drivers.observe`` returned
    them; it supplies the generated bytes that ``ProcessReport`` states.
    """
    totals: dict[str, LayerTotals] = totals_by_name(recorded)
    metrics: dict[str, float] = {}
    for name in BUSY:
        if name in totals:
            metrics[f"{name}.busy_s"] = totals[name].busy
    for name in SELF:
        if name in totals:
            metrics[f"{name}.self_s"] = totals[name].self
    for metric, name in CALLS.items():
        if name in totals:
            metrics[metric] = totals[name].count
    for metric, (name, attribute) in SUMS.items():
        if name in totals:
            metrics[metric] = sum(
                span.attrs.get(attribute, 0)
                for span in recorded
                if span.name == name
            )
    lookups = [span for span in recorded if span.name == "datagen.cache.get"]
    if lookups:
        misses = sum(1 for span in lookups if span.attrs.get("miss"))
        metrics["datagen.cache.misses"] = misses
        metrics["datagen.cache.hits"] = len(lookups) - misses
    nosql = [
        span.attrs.get("operations", 0)
        for span in recorded
        if span.name == "workloads.run" and span.attrs.get("engine") == "nosql"
    ]
    if nosql:
        metrics["engines.nosql.operations"] = sum(nosql)

    # Generation rates: records over the fit + generate time that made them.
    producing = [
        span for span in recorded
        if span.name in ("datagen.fit", "datagen.generate")
    ]
    seconds = sum(span.duration for span in producing)
    if seconds > 0:
        metrics["datagen.records_per_s"] = metrics.get("datagen.records", 0) / seconds
    sized = {name for name, cell in observed.items() if cell.get("bytes")}
    sized_seconds = sum(span.duration for span in producing if span.cell in sized)
    if sized_seconds > 0:
        generated = sum(observed[name]["bytes"] for name in sized)
        metrics["datagen.bytes"] = generated
        metrics["datagen.mb_per_s"] = generated / 1e6 / sized_seconds
    registry_name = generator_targets()[1]
    by_generator: dict[str, list[float]] = {}
    for span in producing:
        entry = by_generator.setdefault(
            registry_name.get(span.attrs.get("generator"), "?"), [0.0, 0.0]
        )
        entry[0] += span.attrs.get("records", 0)
        entry[1] += span.duration
    for name, (records, busy) in by_generator.items():
        if records and busy > 0:
            metrics[f"datagen.{name}.records_per_s"] = records / busy
    return metrics
