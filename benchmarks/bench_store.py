"""Store ledger: what the benchmark's own history costs as it grows.

BDGS (PAPERS.md) asks that volume must not bound a benchmark's data; the
run store and the job log are this benchmark's data about itself
(DESIGN.md §3.18).  One row holds, for the ``src`` it measures:

* ``append_one_s``: **one** ``RunStore.record_outcome`` onto a store that
  already holds 100 / 1 000 / 10 000 records.  The file is pre-built by
  writing lines directly, so a tree whose append reads the whole history
  stays affordable to measure;
* ``records_read_s``: ``RunStore.records()`` at the same sizes;
* ``runs_list_cold_s``: a cold ``repro runs list`` process at the same
  sizes;
* ``append_from_empty_s``: 1 000 appends into an empty store;
* ``multiprocess_appends_per_s``: 4 processes x 50 appends into one
  store, released together (whether the ids came out distinct is
  ``multiprocess_distinct_ids``);
* ``idle_shutdown_s``: ``Orchestrator.shutdown()`` of a started
  two-scheduler service that has nothing to do;
* ``serialize_result_s``: one ``RunResult.as_dict()`` of a 3-repeat
  result, ``fresh`` (nobody has summarized it yet: what
  ``record_outcome`` pays) and ``again`` (the next reader of the same
  result: the report table, ``--json``).

Timings are the minimum and the median over ``--repeats`` runs, all taken
in one child process whose ``PYTHONPATH`` is the measured ``src``; the
probe uses only calls both sides of a comparison have, so the same script
measures the parent commit::

    PYTHONPATH=src python -m pytest benchmarks/bench_store.py -q -s
    PYTHONPATH=src python benchmarks/bench_store.py --src OTHER/src --source parent

The row is appended to ``BENCH_store.json`` through
:func:`_history.append_history`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from _history import append_history, run_child

RESULTS_FILE = Path(__file__).parent / "BENCH_store.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
REPEATS = 5
SIZES = (100, 1_000, 10_000)
APPENDS_FROM_EMPTY = 1_000
WRITERS, APPENDS_PER_WRITER = 4, 50
#: What the pytest entry point (CI's ledger-smoke step) runs.
SMOKE = {"repeats": 2, "sizes": (100, 1_000), "appends": 200}


def _timed(repeats: int, function: Callable[[], Any]) -> dict[str, float]:
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        walls.append(time.perf_counter() - started)
    return {"min": min(walls), "median": statistics.median(walls)}


def _outcome():
    """A real outcome and its fingerprint, as ``repro run --record`` makes."""
    from repro import api
    from repro.analysis.store import spec_fingerprint

    spec = api.BenchmarkSpec(
        "micro-wordcount", engines=["mapreduce"], volume=50, repeats=2
    )
    result = api.run(spec).results[0]
    return result, spec_fingerprint(
        spec.prescription, result.engine, workload=result.workload,
        volume=spec.volume, repeats=spec.repeats,
    )


def _prebuilt(root: Path, size: int, outcome) -> None:
    """A store of ``size`` records, its lines written directly."""
    from repro.analysis.store import RunStore

    store = RunStore(root)
    payload = store.record_outcome(*outcome).as_dict()
    with store.path.open("w", encoding="utf-8") as handle:
        for number in range(1, size + 1):
            payload["record_id"] = f"r{number:04d}"
            handle.write(json.dumps(payload, default=str) + "\n")


def _probe_sizes(repeats: int, sizes, outcome) -> dict[str, dict]:
    from repro.analysis.store import RunStore

    rows: dict[str, dict] = {
        "append_one_s": {}, "records_read_s": {}, "runs_list_cold_s": {},
    }
    for size in sizes:
        with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
            _prebuilt(Path(root), size, outcome)
            store = RunStore(root)
            rows["records_read_s"][str(size)] = _timed(repeats, store.records)
            rows["runs_list_cold_s"][str(size)] = _timed(
                repeats,
                lambda: subprocess.run(
                    [sys.executable, "-m", "repro.cli", "runs", "list",
                     "--store-dir", root],
                    capture_output=True, check=True, timeout=300,
                ),
            )
            # Last: these grow the store (by ``repeats`` records at most).
            rows["append_one_s"][str(size)] = _timed(
                repeats, lambda: store.record_outcome(*outcome)
            )
    return rows


def _probe_from_empty(repeats: int, appends: int, outcome) -> dict[str, float]:
    from repro.analysis.store import RunStore

    def run() -> None:
        with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
            store = RunStore(root)
            for _ in range(appends):
                store.record_outcome(*outcome)

    return _timed(repeats, run)


def _write_many(root: str, barrier, outcome) -> None:
    from repro.analysis.store import RunStore

    store = RunStore(root)
    barrier.wait(timeout=60)
    for _ in range(APPENDS_PER_WRITER):
        store.record_outcome(*outcome)


def _probe_multiprocess(repeats: int, outcome) -> dict[str, Any]:
    fork = multiprocessing.get_context("fork")
    rates, distinct = [], True
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
            barrier = fork.Barrier(WRITERS + 1)
            writers = [
                fork.Process(target=_write_many, args=(root, barrier, outcome))
                for _ in range(WRITERS)
            ]
            for writer in writers:
                writer.start()
            barrier.wait(timeout=60)
            started = time.perf_counter()
            for writer in writers:
                writer.join(timeout=600)
            elapsed = time.perf_counter() - started
            lines = (Path(root) / "runs.jsonl").read_text().splitlines()
            ids = {json.loads(line)["record_id"] for line in lines}
            distinct = distinct and len(ids) == WRITERS * APPENDS_PER_WRITER
            rates.append(WRITERS * APPENDS_PER_WRITER / elapsed)
    return {
        "multiprocess_appends_per_s": {
            "max": max(rates), "median": statistics.median(rates),
        },
        "multiprocess_distinct_ids": distinct,
    }


def _probe_idle_shutdown(repeats: int) -> dict[str, float]:
    from repro.service.orchestrator import Orchestrator

    walls = []
    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        for _ in range(max(repeats, 5)):
            service = Orchestrator(
                schedulers=2, store_dir=root, log_jobs=False
            ).start()
            time.sleep(0.005)  # both schedulers are waiting for work
            started = time.perf_counter()
            service.shutdown()
            walls.append(time.perf_counter() - started)
    return {"min": min(walls), "median": statistics.median(walls)}


def _probe_serialize(repeats: int) -> dict[str, dict[str, float]]:
    from repro import api
    from repro.core.results import RunResult

    spec = api.BenchmarkSpec(
        "micro-wordcount", engines=["mapreduce"], volume=50, repeats=3
    )
    payload = api.run(spec).results[0].as_dict()
    copies = 200
    rows: dict[str, list[float]] = {"fresh": [], "again": []}
    for _ in range(max(repeats, 5)):
        results = [RunResult.from_dict(payload) for _ in range(copies)]
        for reader in ("fresh", "again"):
            started = time.perf_counter()
            for result in results:
                result.as_dict()
            rows[reader].append((time.perf_counter() - started) / copies)
    return {
        reader: {"min": min(walls), "median": statistics.median(walls)}
        for reader, walls in rows.items()
    }


def probe(repeats: int, sizes, appends: int) -> dict[str, Any]:
    """Every measurement of one row, taken in this process."""
    outcome = _outcome()
    return {
        **_probe_sizes(repeats, sizes, outcome),
        "append_from_empty_s": _probe_from_empty(repeats, appends, outcome),
        **_probe_multiprocess(repeats, outcome),
        "idle_shutdown_s": _probe_idle_shutdown(repeats),
        "serialize_result_s": _probe_serialize(repeats),
    }


def measure_store(
    src: Path = SRC_DIR, repeats: int = REPEATS, sizes=SIZES,
    appends: int = APPENDS_FROM_EMPTY,
) -> dict:
    """Run :func:`probe` in a child whose ``repro`` is the one under ``src``."""
    run_child(src, ["-m", "compileall", "-q", str(src)], timeout=300)
    child = run_child(
        src,
        [__file__, "--probe", "--repeats", str(repeats),
         "--appends", str(appends), "--sizes", *map(str, sizes)],
        timeout=3600,
    )
    return json.loads(child.stdout)


def record_store(
    src: Path = SRC_DIR, source: str = "worktree", repeats: int = REPEATS,
    sizes=SIZES, appends: int = APPENDS_FROM_EMPTY,
) -> dict:
    rows = measure_store(src, repeats, sizes, appends)
    print(f"\n{'records':>8s} {'one append s':>13s} {'records() s':>12s} "
          f"{'runs list s':>12s}   (min)")
    for size in map(str, sizes):
        print(
            f"{size:>8s} {rows['append_one_s'][size]['min']:13.6f} "
            f"{rows['records_read_s'][size]['min']:12.4f} "
            f"{rows['runs_list_cold_s'][size]['min']:12.4f}"
        )
    print(f"{appends} appends from empty  "
          f"{rows['append_from_empty_s']['min']:.4f} s")
    print(
        f"{WRITERS} x {APPENDS_PER_WRITER} multi-process appends  "
        f"{rows['multiprocess_appends_per_s']['median']:.0f} /s (median), ids "
        f"{'distinct' if rows['multiprocess_distinct_ids'] else 'DUPLICATED'}"
    )
    print(f"idle shutdown  {rows['idle_shutdown_s']['median'] * 1e3:.2f} ms "
          "(median)")
    print(
        "RunResult.as_dict()  "
        f"{rows['serialize_result_s']['fresh']['min'] * 1e6:.0f} us fresh, "
        f"{rows['serialize_result_s']['again']['min'] * 1e6:.0f} us again"
    )
    append_history(
        RESULTS_FILE,
        "store.append_and_read",
        {
            "sizes": list(sizes),
            "appends_from_empty": appends,
            "writers": WRITERS,
            "appends_per_writer": APPENDS_PER_WRITER,
        },
        {"source": source, "repeats": repeats, **rows},
    )
    return rows


def test_store_ledger():
    sizes = SMOKE["sizes"]
    rows = record_store(
        repeats=SMOKE["repeats"], sizes=sizes, appends=SMOKE["appends"]
    )
    small, large = (rows["append_one_s"][str(size)]["min"] for size in sizes)
    # One append does not read the history: ten times the records, and
    # nowhere near ten times the cost.
    assert large < 3 * small + 0.001
    assert rows["multiprocess_distinct_ids"]
    assert rows["idle_shutdown_s"]["median"] < 0.025


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=SRC_DIR)
    parser.add_argument("--source", default="worktree")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--appends", type=int, default=APPENDS_FROM_EMPTY)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args()
    if options.probe:
        json.dump(
            probe(options.repeats, options.sizes, options.appends), sys.stdout
        )
    else:
        record_store(
            options.src.resolve(), options.source, options.repeats,
            options.sizes, options.appends,
        )
