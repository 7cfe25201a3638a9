"""The four workloads, and the child process that runs one of them.

A workload is a fixed list of *cells*; a cell is one public call of the
program (an ``api.run``, a burst of service jobs, an ablation, a load
run, or one ``python -m repro.cli`` subprocess).  One *round* runs every
cell once.  ``run.py`` starts this file as a child process per workload
so that imports, caches and peak memory of one workload never reach
another; the child writes what it observed to a JSON file and the
parent turns observations into metrics.

Volumes below were sized on 2 cores so that a round is 2-10 s (the gate
allows a run about 35 s in all) and no cell but ``grep-lda``, whose cost
is the fixed LDA fit, exceeds a quarter of its round.  They are frozen:
a change that resizes them changes the benchmark, not the program.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import checks
import layers
import spans

HERE = Path(__file__).resolve().parent

MIN_ROUNDS = 3
MAX_ROUNDS = 40
#: Each cell's volume is its base volume x (1 + u), u drawn once per run.
VOLUME_JITTER = 0.05
SMOKE_DIVISOR = 20

#: What the pre-seeded store of ``cli-cold`` holds before every round.
SEEDED_RECORDS = 200
SEEDED_JOBS = 20

SCRUBBED_ENV = ("REPRO_EXECUTOR", "REPRO_CHUNK_SIZE", "REPRO_STORE_DIR")

#: Seconds the reference kernel takes on the machine the reported times
#: are scaled to (this container's 2 cores, on a quiet stretch).
REFERENCE_S = 0.030


@functools.cache
def _reference_data() -> tuple[list[str], bytearray, array]:
    """Inputs of the kernel, built at its first use (so not during set-up)."""
    words = [f"w{(i * 7919) % 997}" for i in range(6000)]
    # 4 MB read at scattered offsets: more than a core's private cache, so
    # the kernel slows down with the host's shared cache as the program does.
    size = 4 << 20
    offsets = array("I", ((i * 2654435761) % size for i in range(120_000)))
    return words, bytearray(size), offsets


def _reference_kernel() -> int:
    """A fixed piece of interpreter work: dict, sort, string, int, memory."""
    words, data, offsets = _reference_data()
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    text = " ".join(words).split()
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
    for offset in offsets:
        total += data[offset]
    return len(ordered) + len(text) + total


def reference_seconds() -> float:
    """How long the reference kernel takes right now.

    The host this benchmark runs on speeds up and slows down by tens of
    per cent for minutes at a time, which no statistic within one run
    removes.  Every timed call is therefore bracketed by this kernel and
    reported in seconds of a machine that runs the kernel in
    :data:`REFERENCE_S`; the kernel is the benchmark's code, so a change
    to the program cannot move it.
    """
    _reference_data()
    started = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - started


@dataclass(frozen=True)
class Cell:
    name: str
    #: "run" | "burst" | "ablate" | "load" | "cli"
    kind: str
    #: Base volume in the generator's unit; 0 when the cell takes none.
    volume: int
    #: BenchmarkSpec fields ("run", "burst"), call keywords ("ablate",
    #: "load"), or ``argv`` and expectations ("cli").
    args: dict[str, Any] = field(default_factory=dict)
    #: Layout that layout-aware engines must report having executed.
    layout: str = "row"
    #: Whether the generator's record count equals the volume (a graph's
    #: volume is vertices, its records are edges).
    exact_records: bool = True
    #: False for iterative workloads: how many iterations they take to
    #: converge jumps with any change of input (k-means: 8 to 16 over
    #: +-10 % of volume), which would be seed noise, not signal.
    jitter: bool = True


def _run(name: str, prescription: str, volume: int, **spec: Any) -> Cell:
    layout = spec.pop("expect_layout", spec.get("layout", "row"))
    exact = spec.pop("exact_records", True)
    jitter = spec.pop("jitter", True)
    return Cell(
        name, "run", volume, {"prescription": prescription, **spec},
        layout, exact, jitter,
    )


def _cli(name: str, *argv: str, volume: int = 0, **expect: Any) -> Cell:
    layout = expect.pop("layout", "row")
    return Cell(name, "cli", volume, {"argv": list(argv), **expect}, layout)


_RELATIONAL = "database-aggregate-join"
_WINDOW = "realtime-windowed-aggregation"

#: The spec of one burst job; ``service.overhead_per_job_s`` times the
#: same spec through ``api.run`` directly.
_BURST_SPEC = {"prescription": "micro-wordcount", "record": True}


@dataclass(frozen=True)
class Workload:
    why: str
    cells: tuple[Cell, ...]


WORKLOADS: dict[str, Workload] = {
    "cli-cold": Workload(
        "Seven CLI subprocesses against a pre-seeded store: interpreter start "
        "and import repro dominate every command, engines do almost nothing.",
        (
            _cli("list", "list", stdout_has="prescriptions:"),
            _cli(
                "run-small", "run", "micro-wordcount", "--json",
                volume_default=200, engines=["mapreduce"],
            ),
            _cli(
                "run-record", "run", _RELATIONAL, "--volume", "{volume}",
                "--layout", "columnar", "--record", "--store-dir", "{store}",
                "--json",
                volume=2000, engines=["dbms", "mapreduce", "nosql"],
                layout="columnar", records_added=3,
            ),
            _cli("runs-list", "runs", "list", "--store-dir", "{store}",
                 stdout_has="r0200"),
            _cli("compare", "compare", "r0001", "r0002", "--store-dir",
                 "{store}", stdout_has="overall:"),
            # A seeded store of its own: a CLI process numbers its jobs
            # from j0001 again, and ``jobs list`` exits 2 on a log in which
            # the events of two jobs of one id interleave out of order.
            _cli("submit", "submit", "micro-wordcount", "--store-dir",
                 "{store}", volume_default=200, jobs_before=SEEDED_JOBS,
                 jobs_added=1, records_added=1, store="store-submit"),
            _cli("jobs-list", "jobs", "list", "--store-dir", "{store}",
                 stdout_has="j0001"),
        ),
    ),
    "gen-bound": Workload(
        "Generation-dominated api.run specs (LDA fit and sampling, kv "
        "records, Poisson stream serial and partitioned, random text): "
        "engines do almost nothing.",
        (
            _run("grep-lda", "micro-grep", 600),
            _run("ycsb-kv-nosql", "oltp-read-write", 1500, engines=["nosql"],
                 params={"operation_count": 250}),
            _run("window-poisson", _WINDOW, 30000),
            _run("window-poisson-p2", _WINDOW, 30000, data_partitions=2),
            _run("cfs-text", "micro-cfs", 10000),
        ),
    ),
    "exec-default": Workload(
        "All five engines on the default path (row, serial, materialized, "
        "direct, normal tuning): execution dominates, generation is small.",
        (
            _run("wordcount-mr", "micro-wordcount", 5000, repeats=2),
            _run("sort-mr", "micro-sort", 3000, repeats=2),
            _run("pagerank-mr", "search-pagerank", 1024, exact_records=False,
                 jitter=False),
            _run("kmeans-mr", "social-kmeans", 2000, jitter=False),
            _run("relational-3eng", _RELATIONAL, 5000, repeats=2),
            _run("relational-dbms", _RELATIONAL, 10000, engines=["dbms"],
                 repeats=3),
            _run("ycsb-2eng", "oltp-read-write", 500,
                 params={"operation_count": 2000}),
            _run("window-stream", _WINDOW, 10000, repeats=3),
            _run("cfs-dfs", "micro-cfs", 2000),
        ),
    ),
    "exec-alt": Workload(
        "The same prescriptions through every non-default path (columnar, "
        "optimized tuning, chunked, process and thread pools, the service, "
        "ablation, load generation), recording into the run store.",
        (
            _run("relational-dbms-columnar", _RELATIONAL, 10000,
                 engines=["dbms"], repeats=3, layout="columnar"),
            _run("relational-dbms-optimized", _RELATIONAL, 10000,
                 engines=["dbms"], repeats=3, tuning="optimized",
                 expect_layout="columnar"),
            _run("wordcount-mr-columnar", "micro-wordcount", 2000, repeats=2,
                 layout="columnar"),
            _run("wordcount-mr-chunked", "micro-wordcount", 3000, repeats=2,
                 chunk_size=1024),
            _run("relational-3eng-chunked", _RELATIONAL, 5000, repeats=2,
                 chunk_size=2048),
            _run("relational-3eng-process", _RELATIONAL, 5000, repeats=2,
                 executor="process", max_workers=2),
            _run("kmeans-mr-thread", "social-kmeans", 750, repeats=2,
                 executor="thread", max_workers=2, jitter=False),
            Cell("service-burst", "burst", 150,
                 {"jobs": 80, "clients": 2, "schedulers": 2}),
            Cell("ablate-2cell", "ablate", 10000,
                 {"workloads": ["relational"], "engines": ["dbms"],
                  "repeats": 3, "include_one_offs": False, "cells": 2}),
            Cell("load-virtual", "load", 150,
                 {"prescription": "micro-wordcount", "rate": 50, "duration": 1,
                  "clock": "virtual"}),
        ),
    ),
}


def plan(workload: str, seed: int, smoke: bool = False) -> list[Cell]:
    """The cells of one run: seeded volumes, in seeded order.

    The same ``(workload, seed)`` gives the same list in every process,
    so two commits compared at one seed receive identical inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    cells = []
    for cell in WORKLOADS[workload].cells:
        jitter = rng.uniform(-VOLUME_JITTER, VOLUME_JITTER) if cell.jitter else 0.0
        volume = cell.volume // SMOKE_DIVISOR if smoke else cell.volume
        if cell.volume:
            volume = max(8, round(volume * (1.0 + jitter)))
        args = cell.args
        if smoke and cell.kind == "burst":
            args = {**args, "jobs": max(2, args["jobs"] // SMOKE_DIVISOR)}
        cells.append(replace(cell, volume=volume, args=args))
    rng.shuffle(cells)
    return cells


def stated_records(cell: Cell) -> int:
    """The input size a cell asks the program for, in records."""
    if cell.kind == "burst":
        return cell.volume * cell.args["jobs"]
    if cell.kind == "ablate":
        return cell.volume * cell.args["cells"]
    if cell.kind == "load":
        return round(cell.volume * cell.args["rate"] * cell.args["duration"])
    return cell.volume or cell.args.get("volume_default", 0)


# -- running one cell ---------------------------------------------------------


@dataclass
class Context:
    """What a cell needs besides its own definition."""

    seed: int
    #: This round's directory, with one run store per name its cells use.
    root: Path
    #: The reference timing taken after the previous cell.
    reference: float = 0.0

    def store(self, cell: Cell) -> Path:
        return self.root / cell.args.get("store", "store")


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + reaped.ru_utime + reaped.ru_stime


def _store_size(store: Path) -> tuple[int, int]:
    """Records and bytes in the run store's append-only JSONL file."""
    path = store / "runs.jsonl"
    if not path.exists():
        return (0, 0)
    with path.open("rb") as handle:
        return (sum(1 for _ in handle), path.stat().st_size)


def _burst_spec(cell: Cell, ctx: Context):
    from repro.api import BenchmarkSpec

    return BenchmarkSpec(
        **_BURST_SPEC, volume=cell.volume, store_dir=str(ctx.store(cell))
    )


def _run_cell(cell: Cell, ctx: Context) -> dict[str, Any]:
    from repro import api
    from repro.api import BenchmarkSpec

    spec = BenchmarkSpec(**cell.args, volume=cell.volume)
    started = time.perf_counter()
    report = api.run(spec)
    wall = time.perf_counter() - started
    steps = {step.step: step.elapsed_seconds for step in report.steps}
    generation = report.step("data-generation").detail
    return {
        "wall_s": wall,
        "steps": steps,
        "bytes": generation.get("bytes"),
        "layout_mismatches": checks.layout_mismatches(cell, report),
        "problems": checks.check_run(cell, spec, report),
        "signature": checks.run_signature(report),
    }


def _burst_cell(cell: Cell, ctx: Context) -> dict[str, Any]:
    from repro import api
    from repro.api import AdmissionError

    jobs_total = cell.args["jobs"]
    clients = cell.args["clients"]
    latencies: list[float] = []
    finished: list[Any] = []
    shed = 0
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client_loop(service: Any, count: int, name: str) -> None:
        nonlocal shed
        for _ in range(count):
            spec = _burst_spec(cell, ctx)
            submitted = time.perf_counter()
            try:
                handle = service.submit(spec, client=name)
                handle.result()
            except AdmissionError:
                with lock:
                    shed += 1
                continue
            except Exception as error:  # noqa: BLE001 - reported as a failed cell
                with lock:
                    errors.append(error)
                return
            elapsed = time.perf_counter() - submitted
            with lock:
                latencies.append(elapsed)
                finished.append(handle.job)

    started = time.perf_counter()
    with api.serve(
        schedulers=cell.args["schedulers"], store_dir=str(ctx.store(cell))
    ) as service:
        threads = [
            threading.Thread(
                target=client_loop,
                args=(
                    service,
                    jobs_total // clients + (index < jobs_total % clients),
                    f"client-{index}",
                ),
            )
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    stamps = [job.timestamps for job in finished]
    return {
        "wall_s": wall,
        "jobs": len(finished),
        "jobs_shed": shed,
        "job_latency_s": latencies,
        "queue_wait_s": [job.queue_wait_seconds() or 0.0 for job in finished],
        "job_run_s": [
            stamp["done"] - stamp["running"]
            for stamp in stamps
            if "done" in stamp and "running" in stamp
        ],
        "problems": checks.check_burst(cell, finished, shed),
        "signature": {
            "jobs": len(finished),
            "engines": sorted(
                {outcome.engine for job in finished for outcome in job.outcomes}
            ),
        },
    }


def _ablate_cell(cell: Cell, ctx: Context) -> dict[str, Any]:
    from repro import api

    options = {
        key: value
        for key, value in cell.args.items()
        if key not in ("workloads", "engines", "cells")
    }
    started = time.perf_counter()
    report = api.ablate(
        cell.args["workloads"],
        cell.args["engines"],
        volume=cell.volume,
        seed=ctx.seed,
        store_dir=str(ctx.store(cell)),
        **options,
    )
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "problems": checks.check_ablation(cell, report),
        "signature": checks.ablation_signature(report),
    }


def _load_cell(cell: Cell, ctx: Context) -> dict[str, Any]:
    from repro import api

    started = time.perf_counter()
    report = api.load(volume=cell.volume, seed=ctx.seed, **cell.args)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "requests": report.offered,
        "problems": checks.check_load(report),
        "signature": {"requests": report.offered},
    }


def _cli_cell(cell: Cell, ctx: Context) -> dict[str, Any]:
    store = ctx.store(cell)
    argv = [
        part.format(volume=cell.volume, store=store)
        for part in cell.args["argv"]
    ]
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    wall = time.perf_counter() - started
    problems, mismatches, signature = checks.check_cli(cell, completed, store)
    return {
        "wall_s": wall,
        "layout_mismatches": mismatches,
        "problems": problems,
        "signature": signature,
    }


_KINDS = {
    "run": _run_cell,
    "burst": _burst_cell,
    "ablate": _ablate_cell,
    "load": _load_cell,
    "cli": _cli_cell,
}


def _records_expected(cell: Cell) -> int:
    if cell.kind == "burst":
        return cell.args["jobs"]
    if cell.kind == "ablate":
        return cell.args["cells"]
    return cell.args.get("records_added", 0)


#: Observation fields that are durations, or lists or dicts of durations.
_DURATIONS = ("wall_s", "cpu_s", "steps", "job_latency_s", "queue_wait_s", "job_run_s")


def _rescale(observation: dict[str, Any], scale: float) -> None:
    """Restate an observation's durations in reference-machine seconds."""
    observation["raw_wall_s"] = observation["wall_s"]
    observation["scale"] = scale
    for key in _DURATIONS:
        value = observation.get(key)
        if isinstance(value, dict):
            observation[key] = {k: v * scale for k, v in value.items()}
        elif isinstance(value, list):
            observation[key] = [v * scale for v in value]
        elif value is not None:
            observation[key] = value * scale


def observe(cell: Cell, ctx: Context, recorder: spans.Recorder | None) -> dict:
    """Run one cell, time it, and verify what it returned.

    Only the call itself is timed; the checks around it are the
    harness's own work, and so are the two reference timings that
    bracket the call and set the scale of its durations.  An exception
    is a failed cell, not a crash.
    """
    store = ctx.store(cell)
    records_before, bytes_before = _store_size(store)
    if recorder is not None:
        recorder.begin_cell(cell.name)
    reference_before = ctx.reference or reference_seconds()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        observation = _KINDS[cell.kind](cell, ctx)
    except Exception as error:  # noqa: BLE001 - counted in failed, run goes on
        observation = {
            "wall_s": time.perf_counter() - started,
            "problems": [f"raised {type(error).__name__}: {error}"],
            "signature": None,
        }
    observation["cpu_s"] = _cpu_seconds() - cpu_before
    ctx.reference = reference_seconds()
    _rescale(observation, REFERENCE_S / ((reference_before + ctx.reference) / 2))
    records_after, bytes_after = _store_size(store)
    observation["store_records"] = records_after - records_before
    observation["store_bytes"] = bytes_after - bytes_before
    expected = _records_expected(cell)
    if observation["store_records"] != expected:
        observation["problems"].append(
            f"run store grew by {observation['store_records']} records, "
            f"expected {expected}"
        )
    observation["records"] = stated_records(cell)
    return observation


# -- the child process --------------------------------------------------------


def _seed_store(template: Path, smoke_report: Any) -> None:
    """Fill the ``cli-cold`` store through the program's public API."""
    from repro.analysis.store import spec_fingerprint
    from repro.api import RunStore

    spec = smoke_report.spec
    result = smoke_report.results[0]
    fingerprint = spec_fingerprint(
        spec.prescription, result.engine, workload=result.workload,
        volume=spec.volume, repeats=spec.repeats,
    )
    store = RunStore(template)
    for _ in range(SEEDED_RECORDS):
        store.record_outcome(result, fingerprint)
    _seed_jobs(template, spec)


def _seed_jobs(template: Path, spec: Any, attempts: int = 8) -> None:
    """Log :data:`SEEDED_JOBS` finished jobs, each one's events in order.

    The service wakes the waiting client before it logs ``done`` and logs
    ``queued`` only after the job is in the queue, so the events of jobs
    submitted back to back interleave in about one log of ten, and ``jobs
    list`` exits 2 on some of those (``cannot go 'queued' -> 'done'``).
    That is the program's to fix; until then every submission here waits
    until the previous ``done`` is in the log, and a log that still does
    not replay to twenty finished jobs is written again.
    """
    from repro import ReproError, api
    from repro.api import BenchmarkSpec
    from repro.service.jobs import JobLog

    log = JobLog(template)
    for _ in range(attempts):
        with api.serve(schedulers=1, store_dir=str(template)) as service:
            for logged in range(1, SEEDED_JOBS + 1):
                service.submit(
                    BenchmarkSpec(spec.prescription, volume=spec.volume)
                ).result()
                while (
                    sum(event["event"] == "done" for event in log.events())
                    < logged
                ):
                    time.sleep(0.001)
        try:
            states = [job.state for job in log.replay().values()]
        except ReproError:
            states = []
        if states == ["done"] * SEEDED_JOBS:
            return
        log.path.unlink()
    raise RuntimeError(f"no job log in lifecycle order in {attempts} attempts")


def _round_context(
    seed: int, tmp: Path, template: Path | None, cells: list[Cell], index: int
) -> Context:
    """Stores that look the same at the start of every round.

    ``RunStore.record_outcome`` reads the whole file to number a record,
    so a store shared by all rounds would make each round slower than
    the one before it.
    """
    ctx = Context(seed, tmp / f"round-{index}")
    for store in {ctx.store(cell) for cell in cells}:
        if template is not None:
            shutil.copytree(template, store)
        else:
            store.mkdir(parents=True)
    return ctx


def _run_round(cells: list[Cell], ctx: Context, recorder=None) -> dict[str, Any]:
    observed = {cell.name: observe(cell, ctx, recorder) for cell in cells}
    return {
        key: sum(cell[key] for cell in observed.values())
        for key in ("wall_s", "raw_wall_s", "cpu_s")
    } | {"cells": observed}


def _typical_seconds(call, repeats: int = 5) -> float:
    """A call timed as a cell is: bracketed, scaled, lower quartile."""
    scaled = []
    reference = reference_seconds()
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        wall = time.perf_counter() - started
        before, reference = reference, reference_seconds()
        scaled.append(wall * REFERENCE_S / ((before + reference) / 2))
    return spans.typical(scaled)


def _probes(cells: list[Cell], ctx: Context) -> dict[str, float]:
    """Timings that some per-layer metrics are differences from."""
    probes: dict[str, float] = {}
    if any(cell.kind == "cli" for cell in cells):

        def python(code: str):
            return lambda: subprocess.run(
                [sys.executable, "-c", code],
                check=True, capture_output=True, timeout=60,
            )

        interp = _typical_seconds(python("pass"))
        probes["startup.interp_s"] = interp
        for module in ("repro", "numpy"):
            probes[f"startup.import_{module}_s"] = (
                _typical_seconds(python(f"import {module}")) - interp
            )
    for cell in cells:
        if cell.kind == "burst":
            from repro import api

            probes["direct_run_s"] = _typical_seconds(
                lambda: api.run(_burst_spec(cell, ctx))
            )
    return probes


def _environment() -> dict[str, Any]:
    import numpy
    import repro
    from repro.analysis.store import environment_fingerprint

    return {
        **environment_fingerprint(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


def child(options: argparse.Namespace) -> dict[str, Any]:
    loadavg = os.getloadavg()[0]
    tmp = Path(options.tmp)
    tmp.mkdir(parents=True, exist_ok=True)

    # Set-up, as a user of the library pays it: the imports, a store to
    # write to, and one small run.  No full warm-up round follows: every
    # api.run and CLI call builds its own DatasetCache and runner, so
    # users pay that on every run and the rounds should too.
    from repro import api
    from repro.api import BenchmarkSpec

    cells = plan(options.workload, options.seed, options.smoke)
    smoke_report = api.run(BenchmarkSpec("micro-wordcount", volume=50))
    template = None
    if any(cell.kind == "cli" for cell in cells):
        template = tmp / "store-template"
        _seed_store(template, smoke_report)
    setup = time.time() - options.spawned_at
    result: dict[str, Any] = {
        "setup_s": setup * REFERENCE_S / reference_seconds()
    }
    if options.setup_only:
        return result

    result["loadavg_start"] = loadavg
    result["environment"] = _environment()
    if options.traced:
        recorder = spans.Recorder()
        ctx = _round_context(options.seed, tmp, template, cells, 0)
        with layers.installed(recorder) as warnings:
            result["rounds"] = [_run_round(cells, ctx, recorder)]
        result["warnings"] = warnings
        spans.write_jsonl(recorder.spans, Path(options.trace_file))
        observed = result["rounds"][0]["cells"]
        for span in recorder.spans:
            # After the raw trace is on disk: the scale of the span's cell.
            span.start *= observed[span.cell]["scale"]
            span.end *= observed[span.cell]["scale"]
        result["layers"] = layers.layer_metrics(recorder.spans, observed)
        result["probes"] = _probes(
            cells, _round_context(options.seed, tmp, template, cells, 1)
        )
    else:
        rounds = []
        minimum, maximum = (1, 1) if options.smoke else (MIN_ROUNDS, MAX_ROUNDS)
        started = time.perf_counter()
        while len(rounds) < maximum and (
            len(rounds) < minimum
            or time.perf_counter() - started < options.seconds
        ):
            layers.require_unwrapped()
            ctx = _round_context(
                options.seed, tmp, template, cells, len(rounds)
            )
            rounds.append(_run_round(cells, ctx))
            shutil.rmtree(ctx.root)
        checks.mark_unrepeatable(rounds)
        result["rounds"] = rounds
    usage = (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN),
    )
    result["peak_rss_mb"] = max(entry.ru_maxrss for entry in usage) / 1024.0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    options = parser.parse_args(argv)
    result = child(options)
    Path(options.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
