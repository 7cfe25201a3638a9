"""Accounting ledger: what the benchmark's own meter costs.

Section 3.1 of the paper separates user-perceivable metrics (duration,
throughput) from architecture metrics (derived here from
``CostCounters``); the second kind is paid for inside the first, so its
price is measured (north-star aim 4: telemetry whose "cost is itself
measured").  One row holds:

* ``sizing_ns_per_record``: ``DataSet.estimated_bytes()`` per record, for
  one generated data set of each ``DataType`` the registry generates
  without a fit (text, table, graph, stream, key-value, image);
* ``hash_ns``: one stable hash at key lengths 1 / 8 / 32 / 342 (the mean
  ``micro-sort`` key), through the MapReduce default partitioner (x31)
  and the NoSQL store's placement (x131; a store remembers where it put
  a ``str`` key, so on a tree with that memo this is the price of
  placing a key *again*, not of the hash);
* ``counted_record_ns``: wall time per input record of an identity
  map / identity reduce job, i.e. a job that is nothing but accounting;
* ``duration_s``: the ``duration`` metric each engine *reports* for the
  nine ``exec-default`` specs of ``benchmarks/e2e`` at their volumes;
* ``meter_share``: for the engines that run user functions (MapReduce,
  streaming), the share of the reported duration that is left when the
  user functions are replaced by look-ups of their precomputed answers:
  the same pairs and events cross the same framework code, the user's
  own work is gone.  (The DBMS, the NoSQL store and the DFS take no user
  callables: all of their duration is the engine.)

A second row, ``accounting.batch_doors``, prices the three per-record
seams of the stream path and the NoSQL store's load door, at the
``window-poisson`` volume of ``benchmarks/e2e``:

* ``built_events_per_s``: ``poisson-stream`` events generated per second;
* ``sizing_ns_per_record``: what ``bytes`` costs per event, ``first_walk``
  (``estimated_bytes()`` of the data set) and ``known`` (what a second
  ``select_data`` of that content address pays on top of generating,
  through a new ``TestGenerator`` as every ``api.run`` builds one: the
  median of back-to-back pairs, not a minimum);
* ``counted_record_ns``: wall time per event of a filter that passes
  everything into a tumbling window whose reducer does nothing, i.e. a
  streaming run that is nothing but the engine;
* ``nosql_load_ns_per_row``: ``NoSqlStore.bulk_load`` per row, on the
  rows ``RelationalQueryWorkload.run_nosql`` loads.

A third row, ``accounting.pair_meter``, prices the engines' pair meter
(``engines.base.estimate_pair_bytes``, DESIGN.md §3.17) by itself:

* ``ns_per_pair``: one call over 5 000 pairs, for the six shapes the
  ``exec-default`` cells emit (rank contributions, scalars, centroids,
  word counts, five-field rows, ``micro-sort``'s 342-character keys);
* ``share``: for the two iterative MapReduce cells, the seconds of the
  reported ``duration`` spent inside the function (a ``perf_counter``
  pair around it, no profiler: cProfile does not tax the C loop inside
  ``str()`` or ``marshal``), of the fastest of ``--repeats`` runs.

Every number is the minimum over at least ``--repeats`` runs (a
micro-probe keeps sampling for 0.4 s) in one child process whose
``PYTHONPATH`` is the measured ``src``; the probe uses only callables
both sides of a comparison have, so the same script measures the parent
commit::

    PYTHONPATH=src python -m pytest benchmarks/bench_accounting.py -q -s
    PYTHONPATH=src python benchmarks/bench_accounting.py --src OTHER/src --source parent

The rows are appended to ``BENCH_accounting.json`` through
:func:`_history.append_history`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from _history import append_history, run_child

RESULTS_FILE = Path(__file__).parent / "BENCH_accounting.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
REPEATS = 7
#: What the pytest entry point (CI's ledger-smoke step) runs.
SMOKE_REPEATS = 2

#: generator → records: one data set per DataType generated without a fit.
SIZED = {
    "random-text": 4000,
    "mixture-table": 8000,
    "er-graph": 1024,
    "poisson-stream": 10000,
    "kv-records": 400,
    "texture-images": 64,
}
KEY_LENGTHS = (1, 8, 32, 342)
IDENTITY_RECORDS = 20000
_RELATIONAL = "database-aggregate-join"
_WINDOW = "realtime-windowed-aggregation"
#: The ``exec-default`` cells of ``benchmarks/e2e/drivers.py``.
SPECS: dict[str, dict[str, Any]] = {
    "wordcount-mr": {"prescription": "micro-wordcount", "volume": 5000},
    "sort-mr": {"prescription": "micro-sort", "volume": 3000},
    "pagerank-mr": {"prescription": "search-pagerank", "volume": 1024},
    "kmeans-mr": {"prescription": "social-kmeans", "volume": 2000},
    "relational-3eng": {"prescription": _RELATIONAL, "volume": 5000},
    "relational-dbms": {
        "prescription": _RELATIONAL, "volume": 10000, "engines": ["dbms"],
    },
    "ycsb-2eng": {
        "prescription": "oltp-read-write", "volume": 500,
        "params": {"operation_count": 2000},
    },
    "window-stream": {"prescription": _WINDOW, "volume": 10000},
    "cfs-dfs": {"prescription": "micro-cfs", "volume": 2000},
}


#: The ``window-poisson`` cell of ``gen-bound`` and the NoSQL task of
#: ``relational-3eng``.
STREAM_EVENTS = 30000
LOAD_ROWS = 5000

#: Pairs per ``estimate_pair_bytes`` call in ``accounting.pair_meter``.
METERED_PAIRS = 5000
#: The iterative cells, whose every iteration emits new floats.
METERED_SPECS = ("pagerank-mr", "kmeans-mr")

#: A micro-probe keeps sampling this long: a few calls of a 20 ms
#: function catch this host in one mood, slow or fast, not at its best.
MIN_PROBE_SECONDS = 0.4


def _best(repeats: int, function) -> float:
    """Minimum wall time of ``function()``: at least ``repeats`` calls,
    and as many more as fit in :data:`MIN_PROBE_SECONDS`."""
    walls: list[float] = []
    deadline = time.perf_counter() + MIN_PROBE_SECONDS
    while len(walls) < repeats or time.perf_counter() < deadline:
        started = time.perf_counter()
        function()
        walls.append(time.perf_counter() - started)
    return min(walls)


def _probe_sizing(repeats: int) -> dict[str, float]:
    from repro.core import registry

    rows = {}
    for name, volume in SIZED.items():
        dataset = registry.generators.create(name).generate(volume)
        seconds = _best(repeats, dataset.estimated_bytes)
        rows[dataset.data_type.label] = seconds * 1e9 / dataset.num_records
    return rows


def _probe_hashes(repeats: int) -> dict[str, float]:
    from repro.engines.mapreduce.job import default_partitioner
    from repro.engines.nosql.store import NoSqlStore

    store = NoSqlStore(num_partitions=8)
    rows = {}
    for length in KEY_LENGTHS:
        keys = [
            "".join(chr(97 + (index * 7 + offset) % 26) for offset in range(length))
            for index in range(400)
        ]
        for label, place in (
            ("mapreduce", lambda key: default_partitioner(key, 7)),
            ("nosql", store._partition_of),
        ):
            seconds = _best(repeats, lambda: [place(key) for key in keys])
            rows[f"{label}.len{length}"] = seconds * 1e9 / len(keys)
    return rows


def _probe_identity_job(repeats: int) -> float:
    from repro.engines.mapreduce.job import MapReduceJob, identity_mapper
    from repro.engines.mapreduce.runtime import MapReduceEngine

    pairs = [(f"k{index % 997}", index) for index in range(IDENTITY_RECORDS)]
    job = MapReduceJob("identity", identity_mapper)
    seconds = _best(repeats, lambda: MapReduceEngine().run(job, pairs))
    return seconds * 1e9 / len(pairs)


def _probe_durations(repeats: int) -> dict[str, float]:
    from repro import api

    rows: dict[str, float] = {}
    for name, fields in SPECS.items():
        fields = dict(fields)
        prescription = fields.pop("prescription")
        for _ in range(repeats):
            for result in api.run(prescription, **fields).results:
                key = f"{name}.{result.engine}"
                rows[key] = min(
                    rows.get(key, float("inf")), result.mean("duration")
                )
    return rows


def _probe_mapreduce_share(repeats: int) -> dict[str, float]:
    """Word count with its real functions, then with look-ups of their output."""
    from repro.core import registry
    from repro.engines.mapreduce.job import MapReduceJob
    from repro.engines.mapreduce.runtime import MapReduceEngine

    lines = registry.generators.create("random-text").generate(2000).records
    pairs = list(enumerate(lines))

    def words(key, line):
        for word in line.split():
            yield word, 1

    def total(key, values):
        yield key, sum(values)

    mapped = {key: list(words(key, line)) for key, line in pairs}
    answer = {word: ((word, 0),) for line in lines for word in line.split()}
    real = MapReduceJob("wordcount", words, total, combiner=total)
    noop = MapReduceJob(
        "wordcount-noop",
        lambda key, line: mapped[key],
        lambda key, values: answer[key],
        combiner=lambda key, values: answer[key],
    )
    real_s = _best(repeats, lambda: MapReduceEngine().run(real, pairs))
    noop_s = _best(repeats, lambda: MapReduceEngine().run(noop, pairs))
    return {"real_s": real_s, "noop_s": noop_s, "share": noop_s / real_s}


def _probe_streaming_share(repeats: int) -> dict[str, float]:
    from repro.core import registry
    from repro.engines.streaming.engine import (
        StreamingEngine,
        Topology,
        TumblingWindowAggregate,
    )

    events = registry.generators.create("poisson-stream").generate(10000).records

    def run(reducer) -> None:
        topology = Topology("windows").then(
            TumblingWindowAggregate(0.1, reducer=reducer)
        )
        StreamingEngine().run(topology, events)

    real_s = _best(repeats, lambda: run(lambda total, value: total + value))
    noop_s = _best(repeats, lambda: run(lambda total, value: total))
    return {"real_s": real_s, "noop_s": noop_s, "share": noop_s / real_s}


def _probe_batch_doors(repeats: int) -> dict[str, Any]:
    from repro.core import registry
    from repro.core.prescription import builtin_repository
    from repro.core.test_generator import TestGenerator
    from repro.engines.nosql.store import NoSqlStore
    from repro.engines.streaming.engine import (
        FilterOperator,
        StreamingEngine,
        Topology,
        TumblingWindowAggregate,
    )

    generator = registry.generators.create("poisson-stream")
    dataset = generator.generate(STREAM_EVENTS)
    events = dataset.records
    build_s = _best(repeats, lambda: generator.generate(STREAM_EVENTS))
    first_walk_s = _best(repeats, dataset.estimated_bytes)
    requirement = builtin_repository().get(_WINDOW).data

    def select() -> None:
        TestGenerator().select_data(requirement, STREAM_EVENTS)

    select()  # from here on the process has seen this content address
    # Generating and selecting back to back, so that this host's drift
    # cancels in each difference; the median pair is the price.
    over_generating = []
    for _ in range(max(repeats, 9)):
        started = time.perf_counter()
        generator.generate(STREAM_EVENTS)
        generated = time.perf_counter()
        select()
        over_generating.append(
            (time.perf_counter() - generated) - (generated - started)
        )
    known_s = max(0.0, statistics.median(over_generating))

    def stream() -> None:
        topology = (
            Topology("nothing")
            .then(FilterOperator(lambda event: True))
            .then(TumblingWindowAggregate(0.1, lambda total, value: total))
        )
        StreamingEngine().run(topology, events)

    rows = [
        (f"order:{index:010d}", {"product_id": index % 97, "quantity": index % 9})
        for index in range(LOAD_ROWS)
    ]
    return {
        "built_events_per_s": len(events) / build_s,
        "sizing_ns_per_record": {
            "first_walk": first_walk_s * 1e9 / len(events),
            "known": known_s * 1e9 / len(events),
        },
        "counted_record_ns": _best(repeats, stream) * 1e9 / len(events),
        "nosql_load_ns_per_row": _best(
            repeats, lambda: NoSqlStore().bulk_load(rows)
        ) * 1e9 / len(rows),
    }


def _pair_shapes() -> dict[str, list[tuple[Any, Any]]]:
    count = range(METERED_PAIRS)
    return {
        "int.tagged-float": [(i, ("mass", i * 0.37 + 0.001)) for i in count],
        "int.float": [(i, i / 7 + 0.5) for i in count],
        "int.three-floats": [(i % 8, (i * 0.11, i / 3, -i * 1.7)) for i in count],
        "str.int": [(f"w{i % 997}", 1) for i in count],
        "int.five-field-row": [
            (i, {"customer_id": i % 211, "product_id": i % 97,
                 "quantity": i % 9, "price": i * 0.25, "status": "shipped"})
            for i in count
        ],
        "str342.int": [
            ("".join(chr(97 + (i * 7 + at) % 26) for at in range(342)), i)
            for i in count
        ],
    }


def _probe_pair_meter(repeats: int) -> dict[str, Any]:
    from repro import api
    from repro.engines import base
    from repro.engines.mapreduce import runtime

    sizer = base.estimate_pair_bytes
    ns_per_pair = {
        shape: _best(repeats, lambda: sizer(pairs)) * 1e9 / len(pairs)
        for shape, pairs in _pair_shapes().items()
    }
    inside = [0.0, 0]

    def timed(pairs):
        started = time.perf_counter()
        try:
            return sizer(pairs)
        finally:
            inside[0] += time.perf_counter() - started
            inside[1] += 1

    share = {}
    runtime.estimate_pair_bytes = timed
    try:
        for name in METERED_SPECS:
            fields = dict(SPECS[name])
            prescription = fields.pop("prescription")
            runs = []
            for _ in range(repeats):
                inside[:] = [0.0, 0]
                (result,) = api.run(prescription, **fields).results
                runs.append((result.mean("duration"), *inside))
            duration, metered, calls = min(runs)
            share[name] = {
                "duration_s": duration, "metered_s": metered, "calls": calls,
                "share": metered / duration,
            }
    finally:
        runtime.estimate_pair_bytes = sizer
    return {"ns_per_pair": ns_per_pair, "share": share}


def probe(repeats: int) -> dict[str, Any]:
    """Every measurement of one row, taken in this process."""
    import repro  # noqa: F401 (fills the registries)

    return {
        "sizing_ns_per_record": _probe_sizing(repeats),
        "hash_ns": _probe_hashes(repeats),
        "counted_record_ns": _probe_identity_job(repeats),
        "duration_s": _probe_durations(repeats),
        "meter_share": {
            "mapreduce": _probe_mapreduce_share(repeats),
            "streaming": _probe_streaming_share(repeats),
        },
        "batch_doors": _probe_batch_doors(repeats),
        "pair_meter": _probe_pair_meter(repeats),
    }


def measure_accounting(src: Path = SRC_DIR, repeats: int = REPEATS) -> dict:
    """Run :func:`probe` in a child whose ``repro`` is the one under ``src``."""
    child = run_child(
        src, [__file__, "--probe", "--repeats", str(repeats)], timeout=1200
    )
    return json.loads(child.stdout)


def record_accounting(
    src: Path = SRC_DIR, source: str = "worktree", repeats: int = REPEATS
) -> dict:
    rows = measure_accounting(src, repeats)
    doors = rows.pop("batch_doors")
    pair_meter = rows.pop("pair_meter")
    for section in ("sizing_ns_per_record", "hash_ns", "duration_s"):
        print(f"\n{section}")
        for name, value in rows[section].items():
            print(f"  {name:28s} {value:12.4f}")
    print(f"\ncounted_record_ns {rows['counted_record_ns']:.1f}")
    for engine, share in rows["meter_share"].items():
        print(
            f"meter_share.{engine:10s} {share['share']:.2f} "
            f"({share['noop_s']:.4f} of {share['real_s']:.4f} s)"
        )
    append_history(
        RESULTS_FILE,
        "accounting.meter_cost",
        {
            "sized": SIZED,
            "key_lengths": list(KEY_LENGTHS),
            "identity_records": IDENTITY_RECORDS,
            "specs": SPECS,
        },
        {"source": source, "repeats": repeats, **rows},
    )
    print("\nbatch_doors")
    for name, value in doors.items():
        print(f"  {name:28s} {value}")
    append_history(
        RESULTS_FILE,
        "accounting.batch_doors",
        {"stream_events": STREAM_EVENTS, "load_rows": LOAD_ROWS},
        {"source": source, "repeats": repeats, **doors},
    )
    print("\npair_meter (ns per pair)")
    for shape, value in pair_meter["ns_per_pair"].items():
        print(f"  {shape:28s} {value:12.1f}")
    for name, cell in pair_meter["share"].items():
        print(
            f"  {name:28s} {cell['share']:.2f} ({cell['metered_s']:.4f} of "
            f"{cell['duration_s']:.4f} s in {cell['calls']} calls)"
        )
    append_history(
        RESULTS_FILE,
        "accounting.pair_meter",
        {
            "pairs": METERED_PAIRS,
            "specs": {name: SPECS[name] for name in METERED_SPECS},
        },
        {"source": source, "repeats": repeats, **pair_meter},
    )
    return {**rows, "batch_doors": doors, "pair_meter": pair_meter}


def test_accounting_ledger():
    rows = record_accounting(repeats=SMOKE_REPEATS)
    assert set(rows["duration_s"]) >= {
        "wordcount-mr.mapreduce", "relational-3eng.nosql", "ycsb-2eng.dbms",
        "window-stream.streaming", "cfs-dfs.dfs",
    }
    assert all(value > 0 for value in rows["sizing_ns_per_record"].values())
    # Look-ups of precomputed answers cannot cost more than computing them.
    for share in rows["meter_share"].values():
        assert 0.0 < share["share"] < 1.5
    doors = rows["batch_doors"]
    assert doors["built_events_per_s"] > 0 and doors["counted_record_ns"] > 0
    assert doors["nosql_load_ns_per_row"] > 0
    # A size the process knows costs less than walking the records again.
    sizing = doors["sizing_ns_per_record"]
    assert 0.0 <= sizing["known"] < sizing["first_walk"]
    pair_meter = rows["pair_meter"]
    assert len(pair_meter["ns_per_pair"]) == 6
    assert all(value > 0 for value in pair_meter["ns_per_pair"].values())
    # The meter costs less than the work it describes.
    for cell in pair_meter["share"].values():
        assert cell["calls"] > 0 and 0.0 < cell["share"] < 0.5


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=SRC_DIR)
    parser.add_argument("--source", default="worktree")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    options = parser.parse_args()
    if options.probe:
        json.dump(probe(options.repeats), sys.stdout)
    else:
        record_accounting(
            options.src.resolve(), options.source, options.repeats
        )
