"""The spec → plan resolver: one spec, one plan, one series key."""

from __future__ import annotations

import copy

import pytest

from repro import api
from repro.analysis.store import fingerprint_hash
from repro.core.prescription import builtin_repository
from repro.core.spec import BenchmarkSpec
from repro.engines.faults import FaultSpec, FaultyEngine
from repro.execution.plan import engine_configuration, resolve
from repro.tuning.profiles import TuningProfile, normal, optimized

RELATIONAL = "database-aggregate-join"


def _spec(prescription: str = RELATIONAL, **fields) -> BenchmarkSpec:
    # Explicit executor: REPRO_EXECUTOR must not leak into fingerprints
    # the tests pin.
    fields.setdefault("executor", "serial")
    return BenchmarkSpec(prescription, **fields)


class TestEngineConfiguration:
    @pytest.mark.parametrize("engine", ["dbms", "mapreduce", "nosql", "dfs"])
    def test_normal_row_no_fault_means_bare(self, engine):
        assert engine_configuration(engine) is None
        assert engine_configuration(engine, "row", normal(engine)) is None

    def test_profile_knobs_win_over_layout_options(self):
        profile = TuningProfile("dbms", "rows", {"layout": "row"})
        configuration = engine_configuration("dbms", "columnar", profile)
        assert configuration.options["layout"] == "row"

    @pytest.mark.parametrize("engine", ["dbms", "mapreduce", "nosql"])
    def test_inject_latency_wraps_every_engine(self, engine):
        configuration = engine_configuration(engine, inject_latency=0.01)
        assert configuration.options == {}
        assert configuration.fault == FaultSpec(
            latency_rate=1.0, latency_seconds=0.01
        )
        assert isinstance(configuration.build(), FaultyEngine)


class TestResolve:
    def test_resolve_is_pure(self):
        repository = builtin_repository()
        spec = _spec(
            volume=80, layout="columnar", tuning="optimized",
            inject_latency=0.001, params={"seed": 3}, repeats=2,
            data_partitions=2, store_dir="somewhere",
        )
        before = copy.deepcopy(spec)
        first = resolve(spec, repository)
        second = resolve(spec, repository)
        assert first == second
        assert spec == before
        # The plan owns its copies: mutating it cannot reach the spec.
        first.tasks[0].overrides["seed"] = 99
        assert spec.params == {"seed": 3}

    def test_plan_mirrors_the_spec(self):
        spec = _spec(
            volume=80, repeats=3, executor="thread", max_workers=2,
            on_error="continue", retries=1, retry_backoff=0.5,
            task_timeout=9.0, data_partitions=2, chunk_size=16,
            params={"seed": 5},
        )
        plan = resolve(spec, builtin_repository())
        assert plan.engines == ("dbms", "mapreduce", "nosql")
        assert [task.engine_name for task in plan.tasks] == list(plan.engines)
        options = plan.options
        assert (options.repeats, options.executor, options.max_workers) == (
            3, "thread", 2,
        )
        assert (options.on_error, options.retries, options.retry_backoff) == (
            "continue", 1, 0.5,
        )
        assert options.task_timeout == 9.0
        # The spec was validated at planning; repeats do not re-check.
        assert options.check_format is False
        for task in plan.tasks:
            assert task.prescription is plan.prescription
            assert task.volume_override == 80
            assert task.overrides == {"seed": 5}
            assert task.data_partitions == 2
            assert task.chunk_size == 16
            assert task.configuration is None
        assert plan.store_dir is None

    def test_single_partition_means_the_prescription_default(self):
        plan = resolve(_spec(data_partitions=1), builtin_repository())
        assert {task.data_partitions for task in plan.tasks} == {None}

    def test_series_annotation_is_the_request(self):
        plan = resolve(
            _spec(layout="columnar", tuning="optimized"), builtin_repository()
        )
        by_engine = {task.engine_name: task for task in plan.tasks}
        # NoSQL has no layout notion and still forks: the key says what
        # was asked for, never what an engine reported.
        assert by_engine["nosql"].series == {
            "layout": "columnar",
            "tuning": optimized("nosql").fingerprint(),
        }
        assert by_engine["dbms"].series["tuning"]["knobs"]["layout"] == (
            "columnar"
        )

    def test_inject_latency_leaves_the_key_alone(self):
        repository = builtin_repository()
        plain = resolve(_spec(), repository)
        slowed = resolve(_spec(inject_latency=0.01), repository)
        for a, b in zip(plain.tasks, slowed.tasks):
            assert a.configuration is None
            assert b.configuration.fault is not None
            assert a.series == b.series

    def test_profile_object_stands_in_for_the_name(self):
        custom = TuningProfile("dbms", "mine", {"join_algorithm": "hash"})
        plan = resolve(
            _spec(engines=["dbms"], tuning="mine"),
            builtin_repository(),
            profiles={"dbms": custom},
        )
        (task,) = plan.tasks
        assert task.configuration.options == {"join_algorithm": "hash"}
        assert task.series["tuning"] == custom.fingerprint()

    def test_store_dir_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        repository = builtin_repository()
        assert resolve(_spec(), repository, store_dir="svc").store_dir is None
        assert resolve(_spec(record=True), repository).store_dir == (
            ".repro-runs"
        )
        assert resolve(
            _spec(record=True), repository, store_dir="svc"
        ).store_dir == "svc"
        assert resolve(
            _spec(store_dir="mine"), repository, store_dir="svc"
        ).store_dir == "mine"


#: Series keys ``repro run`` wrote at the parent of the resolver change
#: (927a6a6), captured from ``api.run``: every one must stay
#: byte-identical.  The four ``mapreduce`` + ``optimized`` keys forked
#: once since, when combiner batching left that profile (its knobs are
#: part of the key, and the old records measured a different engine).
#: Every ``mapreduce`` and ``nosql`` key forked once more with accounting
#: version 2 (their byte counters changed definition), by exactly the
#: ``accounting`` entry: :data:`ACCOUNTING_V1_SERIES` has old and new.
GOLDEN_SERIES = [
    (RELATIONAL, 120, "row", "normal",
     {"dbms": "3bc9c87265ef", "mapreduce": "90a49ed4ada7",
      "nosql": "1840e2e14536"}),
    (RELATIONAL, 120, "row", "optimized",
     {"dbms": "3e1e2d4f9eac", "mapreduce": "ee8978750f99",
      "nosql": "4ad9185f7fcf"}),
    (RELATIONAL, 120, "columnar", "normal",
     {"dbms": "d52eb4fca5a3", "mapreduce": "ed9ca4a3fd4e",
      "nosql": "d6d2298ea2bb"}),
    (RELATIONAL, 120, "columnar", "optimized",
     {"dbms": "ad802cbbfce4", "mapreduce": "d4fbeff4eb9f",
      "nosql": "fbf7335aa90d"}),
    ("micro-wordcount", 60, "row", "normal", {"mapreduce": "8cc7f5082f05"}),
    ("micro-wordcount", 60, "row", "optimized",
     {"mapreduce": "1062de954f27"}),
    ("micro-wordcount", 60, "columnar", "normal",
     {"mapreduce": "b9b90685287c"}),
    ("micro-wordcount", 60, "columnar", "optimized",
     {"mapreduce": "221c1fc60887"}),
]


#: new key -> the key the same spec had under accounting version 1.
ACCOUNTING_V1_SERIES = {
    "90a49ed4ada7": "3e3b3a014845",
    "1840e2e14536": "84dd5a41ab4a",
    "ee8978750f99": "7ae183a314aa",
    "4ad9185f7fcf": "2ef33441546f",
    "ed9ca4a3fd4e": "e44fbb0fe64e",
    "d6d2298ea2bb": "7e2b22461b89",
    "d4fbeff4eb9f": "e39378251793",
    "fbf7335aa90d": "2059dcacc279",
    "8cc7f5082f05": "13306a1f7e52",
    "1062de954f27": "32fac6830f5c",
    "b9b90685287c": "257ce7c5fc60",
    "221c1fc60887": "2a9cd8f2e8fe",
}


class TestGoldenSeries:
    @pytest.mark.parametrize(
        "prescription,volume,layout,tuning,expected", GOLDEN_SERIES
    )
    def test_run_keys_are_unchanged(
        self, tmp_path, prescription, volume, layout, tuning, expected
    ):
        spec = _spec(
            prescription, volume=volume, layout=layout, tuning=tuning,
            store_dir=str(tmp_path),
        )
        report = api.run(spec)
        records = api.RunStore(str(tmp_path)).records()
        assert [record.record_id for record in records] == report.record_ids
        assert {record.engine: record.series for record in records} == expected
        for record in records:
            # The fork is the one entry, and only where pairs are metered.
            unversioned = {
                key: value for key, value in record.fingerprint.items()
                if key != "accounting"
            }
            assert fingerprint_hash(unversioned) == ACCOUNTING_V1_SERIES.get(
                record.series, record.series
            )
            assert ("accounting" in record.fingerprint) == (
                record.engine in ("mapreduce", "nosql")
            )
