"""E13 — the parallel execution layer and the deterministic dataset cache.

Times the same cross-engine comparison (``database-aggregate-join`` on
DBMS, MapReduce, and NoSQL — the paper's functional-view experiment) on
each executor backend and verifies the layer's two contracts:

1. **determinism** — every backend reports identical means for the
   deterministic metrics (simulated-cluster and seeded-latency metrics;
   wall-clock timings are measurements, not answers);
2. **no redundant generation** — the dataset cache serves one generated
   data set to all three engines (1 miss, N−1 hits).

Each run appends a run-store-schema row (see ``_history``) to
``BENCH_parallel_execution.json`` so the serial/thread/process timings
accumulate into a perf trajectory across revisions.  On multi-core
hosts the pooled backends overlap independent engine runs; on a single
core they can only tie serial, so the timing columns are recorded, not
asserted.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import pytest
from _history import append_history
from conftest import print_banner

from repro.core.results import ResultAnalyzer
from repro.core.spec import BenchmarkSpec
from repro.execution.plan import resolve
from repro.execution.report import ascii_table
from repro.execution.runner import RunnerOptions, TestRunner

ENGINES = ["dbms", "mapreduce", "nosql"]
PRESCRIPTION = "database-aggregate-join"
VOLUME = 300
BACKENDS = ("serial", "thread", "process")

#: Metrics whose means must match across backends (see
#: tests/execution/test_parallel.py for the per-engine rationale).
DETERMINISTIC_METRICS = {
    "mapreduce": [
        "throughput", "ops_per_second", "data_rate",
        "network_rate", "energy", "cost",
    ],
    "nosql": ["throughput", "mean_latency", "latency_p95", "latency_p99"],
    "dbms": [],
}

RESULTS_FILE = Path(__file__).parent / "BENCH_parallel_execution.json"


def _deterministic_means(results) -> dict[str, float]:
    means = {}
    for result in results:
        for name in DETERMINISTIC_METRICS[result.engine]:
            if name in result.metrics:
                means[f"{result.engine}.{name}"] = result.mean(name)
    return means


def _compare(runner: TestRunner, volume: int) -> ResultAnalyzer:
    """The cross-engine comparison: the tasks ``resolve`` makes of it."""
    spec = BenchmarkSpec(PRESCRIPTION, engines=ENGINES, volume=volume)
    tasks = resolve(spec, runner.test_generator.repository).tasks
    return ResultAnalyzer(runner.run_many(tasks))


def _timed_compare(backend: str):
    options = RunnerOptions(executor=backend, max_workers=len(ENGINES))
    with TestRunner(options=options) as runner:
        started = time.perf_counter()
        analyzer = _compare(runner, VOLUME)
        elapsed = time.perf_counter() - started
        cache_stats = runner.test_generator.dataset_cache.stats().as_dict()
    return elapsed, analyzer.results, cache_stats


def test_executor_backends_cross_engine(benchmark):
    def drive():
        measurements = {}
        for backend in BACKENDS:
            elapsed, results, cache_stats = _timed_compare(backend)
            measurements[backend] = {
                "seconds": elapsed,
                "means": _deterministic_means(results),
                "cache": cache_stats,
            }
        return measurements

    measurements = benchmark.pedantic(drive, rounds=2, iterations=1)

    print_banner("E13", "executor backends — cross-engine comparison")
    print(
        ascii_table(
            [
                {
                    "backend": backend,
                    "seconds": data["seconds"],
                    "vs serial": data["seconds"]
                    / measurements["serial"]["seconds"],
                    "cache hits": data["cache"]["hits"],
                    "cache misses": data["cache"]["misses"],
                }
                for backend, data in measurements.items()
            ]
        )
    )

    # Contract 1: identical deterministic metric means on every backend.
    serial_means = measurements["serial"]["means"]
    assert serial_means, "expected deterministic metrics to compare"
    for backend in BACKENDS:
        assert measurements[backend]["means"] == serial_means, backend

    # Contract 2: one generation feeds all engines.  Serial and thread
    # share the parent cache; under process the parent generates the
    # shared data set once and hands it to the workers it creates, whose
    # lookups are hits in their own caches.
    for backend in ("serial", "thread"):
        assert measurements[backend]["cache"]["misses"] == 1
        assert measurements[backend]["cache"]["hits"] == len(ENGINES) - 1
    assert measurements["process"]["cache"]["misses"] == 1

    append_history(
        RESULTS_FILE,
        "parallel_execution.cross_engine",
        {
            "prescription": PRESCRIPTION,
            "volume": VOLUME,
            "engines": ENGINES,
        },
        {
            "seconds": {
                backend: measurements[backend]["seconds"]
                for backend in BACKENDS
            },
            "speedup_vs_serial": {
                backend: measurements["serial"]["seconds"]
                / measurements[backend]["seconds"]
                for backend in BACKENDS
            },
        },
    )


#: Volume for the warm-pool series: large enough that the generation
#: work a warm batch avoids clearly exceeds the pool's IPC cost, so the
#: speedup holds even on a single-core host.
WARM_VOLUME = 4000


def test_warm_pool_steady_state(benchmark):
    """E13b — the warm process pool vs the cold one-shot path.

    Both sides pay what a caller actually pays per comparison.  The
    cold column is the historical cost of every batch: a fresh runner,
    data set generated from scratch, engines built, everything torn
    down after (measured on the serial backend — the cold process path
    additionally paid pool spawning and per-task payloads, so serial is
    the *stricter* baseline).  The warm column is a batch on a process
    runner whose pool already served one batch: workers hold their
    engines and dataset caches, tasks ship as descriptors.  The pool's
    one-time spawn cost is reported separately as ``warmup_seconds``.

    On a single core the workers cannot overlap, so the entire reported
    speedup is overhead actually removed — generation skipped because
    the workers started with the parent's data set, pool reuse, batched
    submission — not parallelism.
    """

    def drive():
        cold_seconds = []
        for _ in range(5):
            started = time.perf_counter()
            with TestRunner(options=RunnerOptions(executor="serial")) as runner:
                analyzer = _compare(runner, WARM_VOLUME)
            cold_seconds.append(time.perf_counter() - started)
        serial_means = _deterministic_means(analyzer.results)

        options = RunnerOptions(executor="process", max_workers=len(ENGINES))
        runner = TestRunner(options=options)
        worker_lookups = Counter()

        def compare():
            analyzer = _compare(runner, WARM_VOLUME)
            for result in analyzer.results:
                delta = result.extra["worker_cache"]
                worker_lookups.update(hits=delta["hits"], misses=delta["misses"])
            return analyzer

        try:
            started = time.perf_counter()
            compare()
            warmup_seconds = time.perf_counter() - started
            warm_seconds = []
            for _ in range(5):
                started = time.perf_counter()
                analyzer = compare()
                warm_seconds.append(time.perf_counter() - started)
            process_means = _deterministic_means(analyzer.results)
            pool_stats = {
                "batches": runner._worker_pool.batches,
                "worker_hits": worker_lookups["hits"],
                "worker_misses": worker_lookups["misses"],
            }
        finally:
            runner.close()
        return {
            "serial_cold": min(cold_seconds),
            "process_warm": min(warm_seconds),
            "warmup_seconds": warmup_seconds,
            "serial_means": serial_means,
            "process_means": process_means,
            "pool": pool_stats,
        }

    data = benchmark.pedantic(drive, rounds=1, iterations=1)
    speedup = data["serial_cold"] / data["process_warm"]

    print_banner("E13b", "warm process pool — steady state vs cold one-shot")
    print(
        ascii_table(
            [
                {
                    "path": "serial (cold, per-batch setup)",
                    "seconds": data["serial_cold"],
                    "speedup": 1.0,
                },
                {
                    "path": "process (warm pool, steady state)",
                    "seconds": data["process_warm"],
                    "speedup": speedup,
                },
            ]
        )
    )
    print(
        f"one-time pool warmup: {data['warmup_seconds'] * 1000:.1f} ms, "
        f"batches served: {data['pool']['batches']}, "
        f"worker cache: {data['pool']['worker_hits']} hits, "
        f"{data['pool']['worker_misses']} misses"
    )

    # Contract 1: the warm pool reproduces serial metrics exactly.
    assert data["serial_means"], "expected deterministic metrics to compare"
    assert data["process_means"] == data["serial_means"]
    # Contract 2: steady-state process is at least serial-fast — the
    # property the CI regression gate enforces on this series.
    assert speedup >= 1.0

    append_history(
        RESULTS_FILE,
        "parallel_execution.warm_pool",
        {
            "prescription": PRESCRIPTION,
            "volume": WARM_VOLUME,
            "engines": ENGINES,
        },
        {
            "seconds": {
                "serial": data["serial_cold"],
                "process": data["process_warm"],
            },
            "speedup_vs_serial": {
                "serial": 1.0,
                "process": speedup,
            },
            "warmup_seconds": data["warmup_seconds"],
            "pool": data["pool"],
        },
    )


def test_dataset_cache_scaling(benchmark):
    """Cache value grows with repeats × engines: still exactly one miss."""

    def drive():
        options = RunnerOptions(repeats=3)
        with TestRunner(options=options) as runner:
            _compare(runner, VOLUME)
            return runner.test_generator.dataset_cache.stats().as_dict()

    stats = benchmark.pedantic(drive, rounds=2, iterations=1)
    print_banner("E13", "dataset cache — one generation per unique request")
    print(ascii_table([stats]))
    assert stats["misses"] == 1
    assert stats["hits"] == len(ENGINES) - 1
    assert stats["hit_rate"] == pytest.approx((len(ENGINES) - 1) / len(ENGINES))
