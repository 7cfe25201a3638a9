"""What a run lets a user observe apart from time, captured for diffing.

The accounting differential test runs every ``exec-default`` and
``gen-bound`` spec of ``benchmarks/e2e/drivers.py`` at a tenth of its
volume with recording shims around the engines' public entry points and
compares what they saw with ``tests/fixtures/accounting_v2.json``, this
script's output on the commit that introduced accounting version 2
(``engines.base.ACCOUNTING_VERSION``)::

    PYTHONPATH=src python tests/engines/_accounting_capture.py \
        > tests/fixtures/accounting_v2.json

``tests/fixtures/accounting_parent.json`` is the same capture under
version 1, taken on the commit *before* the per-record book-keeping was
hoisted out of the engines' inner loops; it is never regenerated, and
the test holds the two fixtures equal in every leaf but the pair-metered
bytes.  A fixture is rewritten only together with a version fork.

Only this file's own code and public callables that exist on both sides
are used, so the same script measures parent and change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Any

_RELATIONAL = "database-aggregate-join"
_WINDOW = "realtime-windowed-aggregation"

#: name → BenchmarkSpec fields: the e2e cells at 1/10 volume.
SPECS: dict[str, dict[str, Any]] = {
    # exec-default
    "wordcount-mr": {"prescription": "micro-wordcount", "volume": 500, "repeats": 2},
    "sort-mr": {"prescription": "micro-sort", "volume": 300, "repeats": 2},
    "pagerank-mr": {"prescription": "search-pagerank", "volume": 102},
    "kmeans-mr": {"prescription": "social-kmeans", "volume": 200},
    "relational-3eng": {"prescription": _RELATIONAL, "volume": 500, "repeats": 2},
    "relational-dbms": {
        "prescription": _RELATIONAL, "volume": 1000, "engines": ["dbms"],
        "repeats": 3,
    },
    "ycsb-2eng": {
        "prescription": "oltp-read-write", "volume": 50,
        "params": {"operation_count": 200},
    },
    "window-stream": {"prescription": _WINDOW, "volume": 1000, "repeats": 3},
    "cfs-dfs": {"prescription": "micro-cfs", "volume": 200},
    # gen-bound
    "grep-lda": {"prescription": "micro-grep", "volume": 60},
    "ycsb-kv-nosql": {
        "prescription": "oltp-read-write", "volume": 150, "engines": ["nosql"],
        "params": {"operation_count": 25},
    },
    "window-poisson": {"prescription": _WINDOW, "volume": 3000},
    "window-poisson-p2": {
        "prescription": _WINDOW, "volume": 3000, "data_partitions": 2,
    },
    "cfs-text": {"prescription": "micro-cfs", "volume": 1000},
}


def digest(value: Any) -> str:
    """sha256 of ``repr(value)``: equal digests, equal outputs."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def ordered_counters(counters: Any) -> list[list[Any]]:
    """A ``CounterGroup`` snapshot as nested lists, insertion order kept."""
    return [
        [group, [[name, value] for name, value in values.items()]]
        for group, values in counters.snapshot().items()
    ]


def observe_job(result: Any) -> dict[str, Any]:
    """Everything but time one ``JobResult`` carries."""
    return {
        "job": result.job_name,
        "records": len(result.output),
        "output": digest(result.output),
        "counters": ordered_counters(result.counters),
        "cost": result.cost.snapshot(),
        "cluster": dataclasses.asdict(result.cluster_report),
    }


@contextmanager
def recording():
    """Install the shims; yields ``{engine name: [observation, ...]}``.

    Observations are grouped by engine because under
    ``executor="thread"`` the engines of one spec run concurrently;
    within one engine the order is the order of the calls.
    """
    from repro.engines.dbms.engine import DbmsEngine
    from repro.engines.mapreduce.runtime import MapReduceEngine
    from repro.engines.nosql.store import NoSqlStore
    from repro.engines.streaming.engine import StreamingEngine
    from repro.workloads.base import Workload

    seen: dict[str, list[dict[str, Any]]] = defaultdict(list)
    lock = threading.Lock()

    def note(engine: str, **observation: Any) -> None:
        with lock:
            seen[engine].append(observation)

    #: (owner, attribute) -> the callable a shim below stands in for.
    originals: dict[tuple[type, str], Any] = {}

    def workload_run(self, engine, dataset, **params):
        result = originals[(Workload, "run")](self, engine, dataset, **params)
        observation = {
            "call": "workload",
            "workload": self.name,
            "records_in": result.records_in,
            "records_out": result.records_out,
            "output": digest(result.output),
            "cost": result.cost.snapshot(),
            "engine_counters": engine.counters.snapshot(),
            "simulated_seconds": result.simulated_seconds,
        }
        if engine.name != "dbms":  # the DBMS reports wall-clock times
            observation["latencies"] = digest(result.latencies)
            observation["extra"] = digest(sorted(result.extra.items()))
        if isinstance(engine, NoSqlStore):
            observation["partition_sizes"] = engine.partition_sizes()
            observation["total_latency_seconds"] = engine.total_latency_seconds
        note(engine.name, **observation)
        return result

    def mapreduce_run(self, job, pairs):
        result = originals[(MapReduceEngine, "run")](self, job, pairs)
        note("mapreduce", call="job", **observe_job(result))
        return result

    def streaming_run(self, topology, events):
        report = originals[(StreamingEngine, "run")](self, topology, events)
        note(
            "streaming",
            call="stream",
            events_in=report.events_in,
            windows=len(report.results),
            window_results=digest(report.results),
            latencies=digest(report.latencies),
            arrival_rate=report.arrival_rate,
            final_backlog_seconds=report.final_backlog_seconds,
        )
        return report

    def dbms_execute(self, query, layout=None):
        result = originals[(DbmsEngine, "execute")](self, query, layout=layout)
        note(
            "dbms",
            call="execute",
            rows=len(result.rows),
            output=digest(result.rows),
            cost=result.cost.snapshot(),
        )
        return result

    def dbms_update(self, table, predicate, updates):
        count = originals[(DbmsEngine, "update")](self, table, predicate, updates)
        note("dbms", call="update", count=count)
        return count

    def dbms_delete(self, table, predicate):
        count = originals[(DbmsEngine, "delete")](self, table, predicate)
        note("dbms", call="delete", count=count)
        return count

    shims = {
        (Workload, "run"): workload_run,
        (MapReduceEngine, "run"): mapreduce_run,
        (StreamingEngine, "run"): streaming_run,
        (DbmsEngine, "execute"): dbms_execute,
        (DbmsEngine, "update"): dbms_update,
        (DbmsEngine, "delete"): dbms_delete,
    }
    for (owner, name), shim in shims.items():
        originals[(owner, name)] = getattr(owner, name)
        setattr(owner, name, shim)
    try:
        yield seen
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)


def capture(name: str, **overrides: Any) -> dict[str, Any]:
    """Run one spec under the shims; everything but time it produced."""
    from repro import api

    fields = {**SPECS[name], **overrides}
    with recording() as seen:
        report = api.run(fields.pop("prescription"), **fields)
    generation = next(
        step.detail for step in report.steps if step.step == "data-generation"
    )
    observed = {
        "generation": {
            key: generation[key] for key in ("generator", "records", "bytes")
        },
        "failures": len(report.failures),
        "results": [[result.engine, result.status] for result in report.results],
        "engines": dict(seen),
    }
    # Through JSON, so a fresh capture and the stored fixture compare as
    # the same types (tuples become lists, float repr round-trips).
    return json.loads(json.dumps(observed))


def _words(key: Any, line: str):
    for word in line.split():
        yield word, 1


def _total(key: Any, values: list[int]):
    yield key, sum(values)


def _edge_jobs() -> dict[str, tuple[Any, Any]]:
    """name -> (job, input pairs): the corners of the MapReduce task loops."""
    from repro.engines.mapreduce.job import JobConf, MapReduceJob

    lines = [
        (index, " ".join(f"w{(index * 7 + step * step) % 23}" for step in range(9)))
        for index in range(40)
    ]

    def silent(key, value):
        return ()

    def by_rank(key, value):
        # Non-text keys and values: ints, a float, a tuple, a bool.
        yield key % 5, ("mass", value.count("w1") / 3)
        yield (key % 3, "side"), key
        yield key % 2 == 0, 0.5

    def every_value(key, values):
        for value in values:
            yield key, value

    def by_length(key, partitions):
        return len(str(key)) % partitions

    counting = {"conf": JobConf(num_map_tasks=3, num_reduce_tasks=2)}
    return {
        "empty-input": (MapReduceJob("empty", _words, _total, combiner=_total), []),
        "silent-mapper": (MapReduceJob("silent", silent, _total), lines),
        "no-combiner": (MapReduceJob("plain", _words, _total, **counting), lines),
        "combiner": (
            MapReduceJob("combined", _words, _total, combiner=_total, **counting),
            lines,
        ),
        "silent-combiner": (
            MapReduceJob("silent-combined", silent, _total, combiner=_total),
            lines,
        ),
        "more-tasks-than-records": (
            MapReduceJob(
                "sparse", _words, _total, combiner=_total,
                conf=JobConf(num_map_tasks=8, num_reduce_tasks=3),
            ),
            lines[:3],
        ),
        "sort-values": (
            MapReduceJob(
                "sorted-values", by_rank, every_value,
                conf=JobConf(sort_values=True, num_reduce_tasks=3),
            ),
            lines,
        ),
        "unsorted-keys": (
            MapReduceJob(
                "unsorted", by_rank, every_value, conf=JobConf(sort_keys=False)
            ),
            lines,
        ),
        "custom-partitioner": (
            MapReduceJob(
                "by-length", _words, _total,
                conf=JobConf(partitioner=by_length, num_reduce_tasks=3),
            ),
            lines,
        ),
        "streamed-splits": (
            MapReduceJob(
                "streamed", _words, _total, combiner=_total,
                conf=JobConf(split_records=6),
            ),
            lines,
        ),
        "long-keys": (
            MapReduceJob("long-keys", lambda key, line: [(line * 9, key)], every_value),
            lines,
        ),
    }


EDGE_JOBS = tuple(_edge_jobs())


def capture_edge(name: str) -> dict[str, Any]:
    """One corner-case job on a bare engine; ``streamed-splits`` feeds a
    generator, so the input is cut lazily."""
    from repro.engines.mapreduce.runtime import MapReduceEngine

    job, pairs = _edge_jobs()[name]
    engine = MapReduceEngine()
    if name == "streamed-splits":
        pairs = iter(pairs)
    observed = observe_job(engine.run(job, pairs))
    observed["engine_counters"] = engine.counters.snapshot()
    return json.loads(json.dumps(observed))


def main() -> None:
    fixture = {name: capture(name) for name in SPECS}
    fixture.update({f"edge:{name}": capture_edge(name) for name in EDGE_JOBS})
    for name in SPECS:
        threaded = capture(name, executor="thread", max_workers=2)
        if threaded != fixture[name]:
            raise SystemExit(f"{name}: thread and serial captures differ")
    # One spec per line: a changed spec is a one-line diff.
    lines = [
        f" {json.dumps(name)}: {json.dumps(fixture[name], sort_keys=True)}"
        for name in sorted(fixture)
    ]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
