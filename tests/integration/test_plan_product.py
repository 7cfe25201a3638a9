"""One property over the plan product: every way of running a spec runs
it as the serial, materialized, direct run of the same spec does.

A drawn :class:`BenchmarkSpec` holds its spec axes (prescription and
engines, layout, tuning, repeats, volume) and varies its path axes
(executor and workers, chunk size, and the door: ``api.run``, a service
job, an ablation cell or a sweep point, each given only the fields it
can express).  Per engine, status, time-free metric means, cost
counters, what ``extra`` says was executed and the recorded fingerprint
must not depend on the path.  Row against columnar is not a path (the
layouts pick different joins and every DBMS metric is wall-clock): the
engine-level oracles ``TestRowColumnarProperty`` and ``TestCostParity``
hold it.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.store import fingerprint_hash, spec_fingerprint
from repro.api import BenchmarkSpec
from repro.core import registry
from repro.core.prescription import builtin_repository
from repro.execution.parallel import EXECUTOR_BACKENDS, EXECUTOR_ENV_VAR
from repro.execution.plan import generation_version
from repro.observability import Tracer
from repro.tuning.profiles import get_profile, one_off_profiles

REPOSITORY = builtin_repository()

#: Every engine family: (prescription, engines); no engines means every
#: engine the workload supports.  ``micro-grep`` reads a fitted model.
WORKLOADS = (
    ("micro-wordcount", ()),
    ("micro-grep", ()),
    ("database-aggregate-join", ()),
    ("database-aggregate-join", ("dbms",)),
    ("oltp-read-write", ()),
    ("oltp-read-write", ("nosql",)),
    ("realtime-windowed-aggregation", ()),
    ("micro-cfs", ()),
)

#: The per-knob one-off profiles; only the DBMS has any.
ONE_OFFS = tuple(profile.name for profile in one_off_profiles("dbms"))

DOORS = ("direct", "service", "ablation", "sweep")

#: Whose metrics are all wall-clock: every DBMS rate divides by the
#: measured duration.  The others run on a simulated clock.
WALL_CLOCK_ENGINES = frozenset({"dbms"})

#: What ``extra`` says was executed.
EXECUTED = ("operations", "plan", "layout", "iterations")

#: The fields that say how a spec ran, not what it ran.
PATH_FIELDS = ("executor", "chunk_size")


@st.composite
def specs(draw) -> BenchmarkSpec:
    prescription, engines = draw(st.sampled_from(WORKLOADS))
    tunings = ("normal", "optimized") + (ONE_OFFS if engines == ("dbms",) else ())
    return BenchmarkSpec(
        prescription,
        engines=list(engines),
        volume=draw(st.integers(30, 90)),
        repeats=draw(st.integers(1, 2)),
        params={"seed": draw(st.integers(0, 2))},
        layout=draw(st.sampled_from(("row", "columnar"))),
        tuning=draw(st.sampled_from(tunings)),
        executor=draw(st.sampled_from(EXECUTOR_BACKENDS)),
        max_workers=draw(st.integers(1, 2)),
        chunk_size=draw(st.sampled_from((None, 7, 32))),
        store_dir=None,
    )


def _narrow(spec: BenchmarkSpec, door: str) -> BenchmarkSpec:
    """``spec`` cut to what ``door`` can express."""
    if door != "sweep":
        return spec
    # A sweep point is one engine, untuned, one repeat, materialized; its
    # executor is the spec default, which REPRO_EXECUTOR sets.
    return replace(
        spec, engines=spec.resolved_engines(REPOSITORY)[:1], tuning="normal",
        repeats=1, chunk_size=None, max_workers=None,
    )


def _reference(spec: BenchmarkSpec) -> BenchmarkSpec:
    """The same spec, serial and materialized (it runs direct).

    MapReduce cuts fixed-size splits off a stream it reads and
    ``num_map_tasks`` splits off a list (DESIGN §3.9), so for a workload
    that streams its input into it, streamed against materialized is
    what runs, not how: that reference streams too.
    """
    prescription = REPOSITORY.get(spec.prescription)
    streams_splits = (
        registry.workloads.create(prescription.workload).streaming_input
        and "mapreduce" in spec.resolved_engines(REPOSITORY)
    )
    return replace(
        spec, executor="serial", max_workers=None,
        chunk_size=spec.chunk_size if streams_splits else None,
    )


def _direct(spec: BenchmarkSpec, store_dir: str) -> list:
    report = api.run(replace(spec, store_dir=store_dir), tracer=Tracer())
    return _with_records(report.outcomes, report.record_ids, store_dir)


def _service(spec: BenchmarkSpec, store_dir: str) -> list:
    with api.serve(schedulers=1, store_dir=store_dir, tracer=Tracer()) as client:
        handle = client.submit(replace(spec, store_dir=store_dir))
        outcomes = handle.result(timeout=120)
        record_ids = handle.job.record_ids
    return _with_records(outcomes, record_ids, store_dir)


def _ablation(spec: BenchmarkSpec, store_dir: str) -> list:
    engines = spec.resolved_engines(REPOSITORY)
    with Tracer().activate():
        report = api.ablate(
            [spec.prescription], engines, repeats=spec.repeats,
            volume=spec.volume, seed=spec.params["seed"], layout=spec.layout,
            executor=spec.executor, max_workers=spec.max_workers,
            chunk_size=spec.chunk_size, include_one_offs=spec.tuning in ONE_OFFS,
            store_dir=store_dir,
        )
    # The matrix drops an optimized column equal to normal (streaming's):
    # such a spec runs as the normal cell.
    cells = [
        report.cell(spec.prescription, engine, spec.tuning)
        or report.cell(spec.prescription, engine, "normal")
        for engine in engines
    ]
    return _with_records(
        [cell.outcome for cell in cells], [cell.record_id for cell in cells],
        store_dir,
    )


def _sweep(spec: BenchmarkSpec, store_dir: str) -> list:
    [engine] = spec.engines
    with Tracer().activate(), mock.patch.dict(
        os.environ, {EXECUTOR_ENV_VAR: spec.executor}
    ):
        report = api.sweep(
            spec.prescription, engine, volumes=[spec.volume], layout=spec.layout,
            **spec.params,
        )
    # A sweep records nothing.
    return [(point.result, None) for point in report.points]


RUN = {"direct": _direct, "service": _service, "ablation": _ablation, "sweep": _sweep}


def _with_records(outcomes, record_ids, store_dir: str) -> list:
    store = api.RunStore(store_dir)
    assert len(record_ids) == len(outcomes)
    return [
        (outcome, store.get(record_id))
        for outcome, record_id in zip(outcomes, record_ids)
    ]


def _cost_counters(counters: dict) -> dict:
    """A span's ``CostCounters``; its other counters (payload bytes,
    cache hits, batches) describe the path."""
    return {name: v for name, v in counters.items() if name.startswith("cost.")}


def _observe(outcome) -> dict:
    """What must not depend on the path that ran the spec."""
    summary = outcome.extra.get("trace_summary") or {}
    return {
        "test": outcome.test_name,
        "engine": outcome.engine,
        "status": outcome.status,
        "samples": {name: len(stats.samples) for name, stats in outcome.metrics.items()},
        "metrics": {
            name: outcome.mean(name)
            for name in outcome.metrics
            if name != "duration" and outcome.engine not in WALL_CLOCK_ENGINES
        },
        "cost": {
            span: cost
            for span, entry in summary.items()
            if (cost := _cost_counters(entry.get("counters", {})))
        },
        "executed": {key: outcome.extra.get(key) for key in EXECUTED},
    }


def _implied_fingerprint(spec: BenchmarkSpec, engine: str) -> dict:
    """The fingerprint the spec itself implies, whichever door ran it."""
    prescription = REPOSITORY.get(spec.prescription)
    return spec_fingerprint(
        spec.prescription, engine, workload=prescription.workload,
        volume=spec.volume, repeats=spec.repeats, params=spec.params,
        chunk_size=spec.chunk_size, executor=spec.executor, layout=spec.layout,
        tuning=get_profile(engine, spec.tuning).fingerprint(),
        generation=generation_version(prescription.data.generator),
    )


@settings(max_examples=100)
@given(spec=specs(), door=st.sampled_from(DOORS))
def test_every_path_runs_the_reference(spec, door):
    spec = _narrow(spec, door)
    reference = _reference(spec)
    with tempfile.TemporaryDirectory() as root:
        expected = _direct(reference, os.path.join(root, "reference"))
        ran = RUN[door](spec, os.path.join(root, door))
    assert all(outcome.ok for outcome, _ in expected)
    assert all(_observe(outcome)["cost"] for outcome, _ in expected)
    assert [_observe(o) for o, _ in ran] == [_observe(o) for o, _ in expected]
    for (outcome, record), (_, reference_record) in zip(ran, expected):
        implied = _implied_fingerprint(reference, outcome.engine)
        assert reference_record.fingerprint == implied
        if record is not None:
            # The series key holds the path fields too, so each side's
            # key is its own spec's; what ran is the reference's.
            assert record.fingerprint == _implied_fingerprint(spec, outcome.engine)
            assert record.series == fingerprint_hash(record.fingerprint)
            assert _request(record.fingerprint) == _request(implied)
            assert set(record.as_dict()) == set(reference_record.as_dict())


def _request(fingerprint: dict) -> dict:
    return {k: v for k, v in fingerprint.items() if k not in PATH_FIELDS}
