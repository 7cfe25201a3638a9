"""Conservation invariants, through the one way an engine is configured.

Counters are reported values (DESIGN.md §3.17), so they must add up:
every operation a workload issues is accounted exactly once, and
replication traffic is what the replication factor says it is.  The
bare engine and an engine configured by a ``SystemConfiguration`` on
the ``RunTask`` are checked on every executor backend, and every door
into the execution layer must hand the same request the same engine.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.spec import BenchmarkSpec
from repro.engines.base import estimate_pair_bytes
from repro.engines.dfs import DistributedFileSystem
from repro.engines.nosql.store import ConsistencyLevel, NoSqlStore
from repro.execution.config import SystemConfiguration
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Tracer

EXECUTORS = ("serial", "thread", "process")

#: What the NoSQL store computes from seeds alone (no wall clock).
NOSQL_DETERMINISTIC = (
    "throughput", "mean_latency", "latency_p95", "latency_p99",
    "data_rate", "network_rate", "energy", "cost",
)

RECORDS, OPERATIONS = 120, 90
OLTP = dict(volume_override=RECORDS, overrides={"operation_count": OPERATIONS})


def _cost(outcome) -> dict[str, int]:
    """The task's ``CostCounters``, as its workload span reports them."""
    counters = outcome.extra["trace_summary"]["workload"]["counters"]
    return {name.removeprefix("cost."): value for name, value in counters.items()}


def _run_traced(executor: str, tasks: list[RunTask]):
    options = RunnerOptions(executor=executor, max_workers=2)
    with TestRunner(options=options) as runner, Tracer().activate():
        outcomes = runner.run_many(tasks)
    assert all(outcome.ok for outcome in outcomes)
    return outcomes


class TestNoSql:
    def _tasks(self) -> list[RunTask]:
        replicated = SystemConfiguration("nosql", {"replication": 2})
        return [
            RunTask("oltp-read-write", "nosql", **OLTP),
            RunTask("oltp-read-write", "nosql", configuration=replicated, **OLTP),
        ]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_operations_issued_are_operations_accounted(self, executor):
        # Mix A: every operation is one read or one update of a loaded
        # key, after one insert per loaded record.
        for outcome in _run_traced(executor, self._tasks()):
            cost = _cost(outcome)
            assert cost["records_read"] + cost["records_written"] == (
                RECORDS + OPERATIONS
            )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_replication_traffic_is_write_bytes_times_extra_replicas(
        self, executor
    ):
        bare, replicated = map(_cost, _run_traced(executor, self._tasks()))
        assert bare["bytes_written"] == replicated["bytes_written"] > 0
        assert bare["network_bytes"] == 0  # RF 1: nothing to ship
        assert replicated["network_bytes"] == replicated["bytes_written"]

    def test_every_executor_reports_the_same_numbers(self):
        observed = {
            executor: [
                (_cost(outcome),
                 [outcome.mean(name) for name in NOSQL_DETERMINISTIC])
                for outcome in _run_traced(executor, self._tasks())
            ]
            for executor in EXECUTORS
        }
        assert observed["thread"] == observed["serial"]
        assert observed["process"] == observed["serial"]

    @pytest.mark.parametrize("load", ["insert", "bulk_load"])
    def test_an_operation_on_a_missing_key_is_still_one_operation(self, load):
        # A failed update charges a read's latency, so it is a read.
        store = NoSqlStore(num_partitions=4)
        rows = [(f"key{index}", {"field": index}) for index in range(6)]
        if load == "bulk_load":
            assert len(store.bulk_load(rows)) == len(rows)
        else:
            for key, fields in rows:
                store.insert(key, fields)
        issued = len(rows)

        def accounted() -> int:
            return store.counters.records_read + store.counters.records_written

        assert accounted() == issued
        for operation, counter in [
            (lambda: store.read("absent"), "records_read"),
            (lambda: store.update("absent", {"field": 0}), "records_read"),
            (lambda: store.delete("absent"), "records_written"),
            (lambda: store.update("key1", {"field": 0}), "records_written"),
        ]:
            before = getattr(store.counters, counter)
            result = operation()
            issued += 1
            assert getattr(store.counters, counter) == before + 1
            assert accounted() == issued
            assert result.latency_seconds > 0
        assert len(store) == len(rows)

    def test_anti_entropy_adds_exactly_the_bytes_it_applies(self):
        store = NoSqlStore(num_partitions=4, replication=3)
        rows = {f"key{index}": {"field": "x" * (index + 1)} for index in range(9)}
        for key, fields in rows.items():
            store.insert(key, fields, ConsistencyLevel.ONE)
        written = sum(estimate_pair_bytes(row.items()) for row in rows.values())
        assert store.counters.bytes_written == written
        assert store.counters.network_bytes == written * (3 - 1)
        # Distinct keys written once at ONE: both lagging replicas of
        # every row are still owed the write.
        assert store.anti_entropy() == 2 * len(rows)
        assert store.counters.network_bytes == written * (3 - 1) + 2 * written
        assert store.anti_entropy() == 0
        assert store.counters.network_bytes == written * (3 - 1) + 2 * written


class TestDfs:
    @pytest.mark.parametrize("replication", [1, 2, 3])
    def test_stored_bytes_are_block_bytes_times_replication(self, replication):
        dfs = DistributedFileSystem(
            num_nodes=4, block_size=64, replication=replication
        )
        dfs.write_file("/a", b"a" * 200)
        dfs.write_stream("/b", (b"b" * 50 for _ in range(7)))
        dfs.append("/a", b"c" * 130)
        dfs.write_file("/empty", b"")
        written = dfs.counters.bytes_written
        assert written == 200 + 350 + 130
        replicas = [
            block for node in dfs.nodes for block in node.blocks.values()
        ]
        assert sum(map(len, replicas)) == written * replication
        assert sum(node.used_bytes for node in dfs.nodes) == written * replication
        assert dfs.counters.network_bytes == written * (replication - 1)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_the_file_system_workload_conserves(self, executor):
        tasks = [
            RunTask("micro-cfs", "dfs", 60),  # bare: RF 2
            RunTask(
                "micro-cfs", "dfs", 60,
                configuration=SystemConfiguration("dfs", {"replication": 3}),
            ),
        ]
        bare, tripled = map(_cost, _run_traced(executor, tasks))
        assert bare["bytes_written"] == tripled["bytes_written"] > 0
        assert bare["network_bytes"] == bare["bytes_written"]
        assert tripled["network_bytes"] == 2 * tripled["bytes_written"]


def test_every_door_builds_the_same_nosql_engine(tmp_path):
    """``api.sweep`` and a library ``TestRunner()`` used to read a table
    of defaults (NoSQL RF=2: ``mean_latency`` 0.633 ms) that ``api.run``
    and ``submit`` never saw (RF=1: 0.422 ms)."""
    params = {"operation_count": OPERATIONS}
    spec = BenchmarkSpec(
        "oltp-read-write", engines=["nosql"], volume=RECORDS, params=params,
        executor="serial",
    )
    (ran,) = api.run(spec).results
    with api.serve(schedulers=1, store_dir=str(tmp_path)) as client:
        (submitted,) = client.submit(spec).result(timeout=120)
    swept = api.sweep(
        "oltp-read-write", "nosql", volumes=[RECORDS], **params
    ).points[0].result
    with TestRunner() as runner:
        library = runner.run("oltp-read-write", "nosql", RECORDS, **params)
    expected = [ran.mean(name) for name in NOSQL_DETERMINISTIC]
    assert ran.mean("network_rate") == 0.0
    for door, result in (
        ("submit", submitted), ("sweep", swept), ("TestRunner", library),
    ):
        assert [
            result.mean(name) for name in NOSQL_DETERMINISTIC
        ] == expected, door
