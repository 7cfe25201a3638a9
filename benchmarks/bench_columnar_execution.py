"""Columnar ledger: batch-at-a-time execution against the row oracle.

Five shapes on one relational engine under both execution layouts.  Four
are single queries (projection scan, selective filter, grouped
aggregate, equi-join) timed best-of-N on an engine that has run the
query once already: the steady state of a session, the columnar view's
columns transposed.  The fifth, ``repeat``, is what every repeat of
every ``repro run`` pays and the other four hide: a fresh engine, both
tables of ``database-aggregate-join`` loaded, the dimension indexed, the
select → join → aggregate plan run once, transposition included.  Its
volumes also give the crossover: the smallest measured volume from
which columnar wins at every larger one.

Two contracts are verified on every measurement:

1. **bit-identity** — the columnar plan returns exactly the rows the
   row-at-a-time plan returns, in the same order (the row path is the
   correctness oracle; compared by ``repr`` so ``1`` vs ``1.0`` and
   ``True`` vs ``1`` cannot slip through);
2. **no slower** — ``speedup_vs_row >= 1.0`` on every shape (a query
   shape at the largest volume, ``repeat`` at its worst gated volume),
   the property the CI gate ``gate_columnar_execution.py`` enforces on
   every recorded row.

Timings are taken in a child process whose ``PYTHONPATH`` is the
measured ``src``, byte-compiled first; the probe uses only calls both
sides of a comparison have, so the same script measures the parent
commit::

    PYTHONPATH=src python -m pytest benchmarks/bench_columnar_execution.py -q -s
    PYTHONPATH=src python benchmarks/bench_columnar_execution.py --src OTHER/src --source parent

The row is appended to ``BENCH_columnar_execution.json`` through
:func:`_history.append_history`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Any

from _history import append_history, run_child

VOLUMES = (2_000, 8_000, 20_000)
QUERIES = ("scan", "filter", "aggregate", "join")
#: ``repeat`` volumes: the small ones only locate the crossover.
REPEAT_VOLUMES = (10, 50, 200, 2_000, 10_000, 40_000)
#: The ``repeat`` volumes ``speedup_vs_row`` (and so the gate) covers.
GATED_REPEAT_VOLUMES = (2_000, 10_000, 40_000)
TIMING_ROUNDS = 5
SERIES = "columnar_execution.vectorized"

RESULTS_FILE = Path(__file__).parent / "BENCH_columnar_execution.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _build_engine(volume: int):
    from repro.engines.dbms import DbmsEngine

    rng = random.Random(volume)
    engine = DbmsEngine()
    engine.create_table("events", ["id", "user", "amount", "category"])
    engine.insert(
        "events",
        [
            (
                i,
                f"user{i % 500}",
                rng.randint(1, 1000),
                f"cat{i % 20}",
            )
            for i in range(volume)
        ],
    )
    engine.create_table("categories", ["name", "weight"])
    engine.insert("categories", [(f"cat{i}", i * 10) for i in range(20)])
    return engine


def _queries() -> dict[str, Any]:
    from repro.engines.dbms import Aggregate, col, lit
    from repro.engines.dbms.planner import JoinSpec, Query

    return {
        "scan": Query(
            table="events",
            projection=[("id", col("id")), ("amount", col("amount"))],
        ),
        "filter": Query(
            table="events",
            predicate=col("amount") > lit(500),
            projection=[
                ("id", col("id")),
                ("user", col("user")),
                ("amount", col("amount")),
            ],
        ),
        "aggregate": Query(
            table="events",
            group_by=["category"],
            aggregates=[
                Aggregate("sum", "amount", "total"),
                Aggregate("count", None, "n"),
            ],
        ),
        "join": Query(
            table="events",
            joins=[JoinSpec("categories", "category", "name")],
            predicate=col("amount") > lit(800),
            projection=[("id", col("id")), ("weight", col("weight"))],
        ),
    }


def _best_of(action, rounds: int = TIMING_ROUNDS) -> float:
    """Min-of-N wall time: the least-noisy point estimate per shape."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        action()
        times.append(time.perf_counter() - started)
    return min(times)


def _pair(row_seconds: float, columnar_seconds: float) -> dict[str, float]:
    return {
        "row_seconds": row_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": row_seconds / columnar_seconds,
    }


def _measure_volume(volume: int) -> dict[str, dict[str, float]]:
    engine = _build_engine(volume)
    measurements: dict[str, dict[str, float]] = {}
    for name, query in _queries().items():
        row_result = engine.execute(query, layout="row")
        columnar_result = engine.execute(query, layout="columnar")
        assert columnar_result.plan["layout"] == "columnar", name
        assert [repr(r) for r in row_result.rows] == [
            repr(r) for r in columnar_result.rows
        ], f"{name}@{volume}: columnar result diverged from the row oracle"
        measurements[name] = _pair(
            _best_of(lambda: engine.execute(query, layout="row")),
            _best_of(lambda: engine.execute(query, layout="columnar")),
        )
    return measurements


def _measure_repeat(volume: int) -> dict[str, float]:
    """One repeat of ``database-aggregate-join`` as ``api.run`` makes it:
    the generated orders table into a fresh engine, then the query."""
    from repro.core.prescription import builtin_repository
    from repro.core.test_generator import TestGenerator
    from repro.engines.dbms import DbmsEngine, PlannerConfig
    from repro.workloads.relational import RelationalQueryWorkload

    dataset = TestGenerator().select_data(
        builtin_repository().get("database-aggregate-join").data, volume
    )
    workload = RelationalQueryWorkload()

    def repeat(layout: str):
        return workload.run_dbms(
            DbmsEngine(PlannerConfig(layout=layout)), dataset
        )

    assert repeat("columnar").extra["plan"]["layout"] == "columnar"
    assert [repr(r) for r in repeat("row").output] == [
        repr(r) for r in repeat("columnar").output
    ], f"repeat@{volume}: columnar result diverged from the row oracle"
    return _pair(
        _best_of(lambda: repeat("row")), _best_of(lambda: repeat("columnar"))
    )


def probe() -> dict[str, Any]:
    """Every measurement of one row, taken in this process."""
    by_volume = {str(volume): _measure_volume(volume) for volume in VOLUMES}
    repeat = {
        str(volume): _measure_repeat(volume) for volume in REPEAT_VOLUMES
    }
    largest = by_volume[str(max(VOLUMES))]
    speedups = {name: largest[name]["speedup"] for name in QUERIES}
    speedups["repeat"] = min(
        repeat[str(volume)]["speedup"] for volume in GATED_REPEAT_VOLUMES
    )
    crossover = None
    for volume in sorted(REPEAT_VOLUMES, reverse=True):
        if repeat[str(volume)]["speedup"] < 1.0:
            break
        crossover = volume
    return {
        "by_volume": by_volume,
        "repeat": repeat,
        "repeat_crossover_volume": crossover,
        "speedup_vs_row": speedups,
    }


def measure(src: Path = SRC_DIR) -> dict[str, Any]:
    """Run :func:`probe` in a child whose ``repro`` is the one under ``src``."""
    run_child(src, ["-m", "compileall", "-q", str(src)], timeout=300)
    return json.loads(run_child(src, [__file__, "--probe"]).stdout)


def record(src: Path = SRC_DIR, source: str = "worktree") -> dict[str, Any]:
    rows = measure(src)
    largest = rows["by_volume"][str(max(VOLUMES))]
    shapes = {f"{name}@{max(VOLUMES)}": largest[name] for name in QUERIES}
    shapes.update(
        (f"repeat@{volume}", rows["repeat"][str(volume)])
        for volume in REPEAT_VOLUMES
    )
    print(f"\n{'shape':>16s} {'row ms':>9s} {'columnar ms':>12s} {'speedup':>8s}")
    for name, pair in shapes.items():
        print(
            f"{name:>16s} {pair['row_seconds'] * 1e3:9.2f} "
            f"{pair['columnar_seconds'] * 1e3:12.2f} {pair['speedup']:7.2f}x"
        )
    print(f"repeat crossover volume: {rows['repeat_crossover_volume']}")
    append_history(
        RESULTS_FILE,
        SERIES,
        {
            "volumes": list(VOLUMES),
            "queries": list(QUERIES),
            "repeat_volumes": list(REPEAT_VOLUMES),
            "timing": f"best of {TIMING_ROUNDS}",
        },
        {"source": source, **rows},
    )
    return rows


def test_columnar_vs_row():
    speedups = record()["speedup_vs_row"]
    # The property the CI gate enforces on this series: no vectorized
    # shape may lose to the row oracle it replaces.
    for name, speedup in speedups.items():
        assert speedup >= 1.0, f"columnar {name} is slower than row: {speedup:.2f}x"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=SRC_DIR)
    parser.add_argument("--source", default="worktree")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args()
    if options.probe:
        json.dump(probe(), sys.stdout)
    else:
        record(options.src.resolve(), options.source)
