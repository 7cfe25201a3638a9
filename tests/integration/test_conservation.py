"""Conservation invariants, through the one way an engine is configured.

Counters are reported values (DESIGN.md §3.17), so they must add up:
every operation a workload issues is accounted exactly once, and
replication traffic is what the replication factor says it is.  The
bare engine and an engine configured by a ``SystemConfiguration`` on
the ``RunTask`` are checked on every executor backend; that every door
hands the same request the same engine is ``test_plan_product.py``'s.
"""

from __future__ import annotations

import pytest

from repro.engines.dfs import DistributedFileSystem
from repro.engines.nosql.store import NoSqlStore
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
