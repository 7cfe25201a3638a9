"""Tests for tunable consistency levels in the NoSQL store."""

from __future__ import annotations

import pytest

from repro.engines.nosql import ConsistencyLevel, LatencyModel, NoSqlStore

ONE = ConsistencyLevel.ONE
QUORUM = ConsistencyLevel.QUORUM
ALL = ConsistencyLevel.ALL


@pytest.fixture()
def store():
    return NoSqlStore(
        num_partitions=6, replication=3,
        latency=LatencyModel(jitter_sigma=0.0), seed=1,
    )


class TestReplicaCounts:
    def test_replicas_required(self):
        assert ONE.replicas_required(3) == 1
        assert QUORUM.replicas_required(3) == 2
        assert QUORUM.replicas_required(5) == 3
        assert ALL.replicas_required(3) == 3
        # Degenerate single-replica store: all levels coincide.
        assert QUORUM.replicas_required(1) == ALL.replicas_required(1) == 1


class TestFreshness:
    def test_quorum_read_sees_quorum_write(self, store):
        store.insert("k", {"v": 1}, consistency=ALL)
        store.update("k", {"v": 2}, consistency=QUORUM)
        # Write quorum (2) and read quorum (2) overlap in a 3-replica set.
        for _ in range(20):
            assert store.read("k", consistency=QUORUM).fields == {"v": 2}

    def test_all_read_always_fresh(self, store):
        store.insert("k", {"v": 1}, consistency=ALL)
        store.update("k", {"v": 2}, consistency=ONE)
        assert store.read("k", consistency=ALL).fields == {"v": 2}

    def test_one_read_can_be_stale_after_one_write(self, store):
        store.insert("k", {"v": "old"}, consistency=ALL)
        store.update("k", {"v": "new"}, consistency=ONE)
        assert store.pending_replications == 2
        observed = {
            store.read("k", consistency=ONE).fields["v"] for _ in range(60)
        }
        # Rotating single-replica reads hit both fresh and stale copies.
        assert observed == {"old", "new"}

    def test_delete_cancels_pending_writes(self, store):
        store.insert("k", {"v": 1}, consistency=ONE)
        assert store.pending_replications == 2
        store.delete("k")
        assert store.pending_replications == 0
        assert not store.read("k", consistency=ALL).ok


class TestLatencyTradeoff:
    def test_stronger_writes_cost_more(self, store):
        weak = store.insert("a", {"v": 1}, consistency=ONE).latency_seconds
        strong = store.insert("b", {"v": 1}, consistency=ALL).latency_seconds
        assert weak < strong

    def test_stronger_reads_cost_more(self, store):
        store.insert("k", {"v": 1}, consistency=ALL)
        one = store.read("k", consistency=ONE).latency_seconds
        everyone = store.read("k", consistency=ALL).latency_seconds
        assert one < everyone

    def test_quorum_between_one_and_all(self, store):
        store.insert("k", {"v": 1}, consistency=ALL)
        one = store.read("k", consistency=ONE).latency_seconds
        quorum = store.read("k", consistency=QUORUM).latency_seconds
        everyone = store.read("k", consistency=ALL).latency_seconds
        assert one < quorum < everyone


class TestDefaultsPreserveStrongBehaviour:
    def test_default_write_is_all(self, store):
        store.insert("k", {"v": 1})
        assert store.pending_replications == 0

    def test_default_read_your_writes(self, store):
        store.insert("k", {"v": 1})
        store.update("k", {"v": 2})
        assert store.read("k").fields == {"v": 2}
