"""Tests for the NoSQL store and the YCSB workload specs."""

from __future__ import annotations

import pytest

from repro.core.errors import EngineError
from repro.engines.nosql import LatencyModel, NoSqlStore
from repro.workloads.oltp import (
    STANDARD_WORKLOADS,
    RequestDistribution,
    YcsbWorkloadSpec,
)


@pytest.fixture()
def store():
    return NoSqlStore(num_partitions=4, replication=2, seed=1)


class TestStoreOperations:
    def test_read_your_writes(self, store):
        store.insert("k1", {"f": "v"})
        result = store.read("k1")
        assert result.ok
        assert result.fields == {"f": "v"}

    def test_read_missing_key(self, store):
        result = store.read("ghost")
        assert not result.ok
        assert result.fields is None

    def test_field_projection(self, store):
        store.insert("k", {"a": 1, "b": 2})
        result = store.read("k", field_names=["b"])
        assert result.fields == {"b": 2}

    def test_update_merges_fields(self, store):
        store.insert("k", {"a": 1})
        store.update("k", {"b": 2})
        assert store.read("k").fields == {"a": 1, "b": 2}

    def test_update_missing_key_fails(self, store):
        assert not store.update("ghost", {"a": 1}).ok

    def test_delete_removes_everywhere(self, store):
        store.insert("k", {"a": 1})
        assert store.delete("k").ok
        assert not store.read("k").ok
        assert not store.delete("k").ok  # second delete is a miss

    def test_insert_overwrite_keeps_key_count(self, store):
        store.insert("k", {"a": 1})
        store.insert("k", {"a": 2})
        assert len(store) == 1
        assert store.read("k").fields == {"a": 2}

    def test_scan_returns_key_order(self, store):
        for key in ("c", "a", "b", "d"):
            store.insert(key, {"v": key})
        result = store.scan("a", 3)
        assert [key for key, _ in result.rows] == ["a", "b", "c"]

    def test_scan_from_midpoint(self, store):
        for key in ("a", "b", "c"):
            store.insert(key, {})
        assert [k for k, _ in store.scan("b", 10).rows] == ["b", "c"]

    def test_scan_validation(self, store):
        with pytest.raises(EngineError):
            store.scan("a", 0)

    def test_replication_places_copies(self):
        store = NoSqlStore(num_partitions=4, replication=3, seed=2)
        store.insert("key", {"a": 1})
        populated = sum(1 for size in store.partition_sizes() if size > 0)
        assert populated == 3

    def test_replication_validation(self):
        with pytest.raises(EngineError):
            NoSqlStore(num_partitions=2, replication=3)
        with pytest.raises(EngineError):
            NoSqlStore(num_partitions=0)

    def test_latencies_are_positive(self, store):
        latency = store.insert("k", {"a": 1}).latency_seconds
        assert latency > 0
        assert store.total_latency_seconds >= latency

    def test_replicated_writes_cost_more(self):
        quiet = LatencyModel(jitter_sigma=0.0)
        single = NoSqlStore(num_partitions=4, replication=1, latency=quiet)
        triple = NoSqlStore(num_partitions=4, replication=3, latency=quiet)
        assert (
            triple.insert("k", {"a": 1}).latency_seconds
            > single.insert("k", {"a": 1}).latency_seconds
        )

    def test_counters_track_operations(self, store):
        store.insert("k", {"a": 1})
        store.read("k")
        assert store.counters.records_written == 1
        assert store.counters.records_read == 1


class TestWorkloadSpecs:
    def test_standard_workloads_sum_to_one(self):
        for factory in STANDARD_WORKLOADS.values():
            spec = factory()
            total = sum(weight for _, weight in spec.operation_mix())
            assert total == pytest.approx(1.0)

    def test_bad_proportions_rejected(self):
        with pytest.raises(EngineError):
            YcsbWorkloadSpec("bad", read_proportion=0.9)

    def test_workload_d_uses_latest(self):
        assert (
            STANDARD_WORKLOADS["D"]().request_distribution
            is RequestDistribution.LATEST
        )
