"""Tests for the simulated distributed file system and the CFS workload."""

from __future__ import annotations

import hashlib

import pytest

from repro import api
from repro.core.errors import EngineError, ExecutionError
from repro.datagen.text import RandomTextGenerator
from repro.engines.dfs import DistributedFileSystem
from repro.workloads import CfsWorkload
from repro.workloads.cfs import _DOCUMENTS_PER_CHUNK, _encoded_lines


@pytest.fixture()
def dfs():
    return DistributedFileSystem(num_nodes=4, block_size=64, replication=2)


class TestReadWrite:
    def test_write_then_read_roundtrips(self, dfs):
        payload = b"hello distributed world" * 10
        dfs.write_file("/a", payload)
        result = dfs.read_file("/a")
        assert result.ok
        assert result.data == payload

    def test_file_is_split_into_blocks(self, dfs):
        dfs.write_file("/a", b"x" * 300)  # block size 64 → 5 blocks
        entry = dfs._namespace["/a"]  # noqa: SLF001 - white-box check
        assert len(entry.block_ids) == 5

    def test_blocks_are_replicated(self, dfs):
        dfs.write_file("/a", b"y" * 100)
        for node_ids in dfs._block_locations.values():  # noqa: SLF001
            assert len(node_ids) == 2
            assert len(set(node_ids)) == 2  # on distinct nodes

    def test_read_missing_file(self, dfs):
        result = dfs.read_file("/ghost")
        assert not result.ok
        assert result.data is None

    def test_overwrite_replaces_content(self, dfs):
        dfs.write_file("/a", b"first")
        dfs.write_file("/a", b"second")
        assert dfs.read_file("/a").data == b"second"

    def test_empty_file(self, dfs):
        dfs.write_file("/empty", b"")
        result = dfs.read_file("/empty")
        assert result.ok
        assert result.data == b""

    def test_append(self, dfs):
        dfs.write_file("/log", b"line1")
        dfs.append("/log", b"\nline2")
        assert dfs.read_file("/log").data == b"line1\nline2"

    def test_append_creates_missing_file(self, dfs):
        dfs.append("/new", b"content")
        assert dfs.read_file("/new").data == b"content"

    def test_delete_frees_space(self, dfs):
        dfs.write_file("/a", b"z" * 500)
        used_before = sum(node.used_bytes for node in dfs.nodes)
        assert used_before > 0
        assert dfs.delete_file("/a").ok
        assert sum(node.used_bytes for node in dfs.nodes) == 0
        assert not dfs.delete_file("/a").ok


class TestSimulation:
    def test_write_latency_grows_with_size(self, dfs):
        small = dfs.write_file("/s", b"a" * 64)
        large = dfs.write_file("/l", b"a" * 6400)
        assert large.simulated_seconds > small.simulated_seconds

    def test_replication_costs_network(self):
        single = DistributedFileSystem(num_nodes=4, replication=1)
        triple = DistributedFileSystem(num_nodes=4, replication=3)
        single.write_file("/a", b"x" * 1000)
        triple.write_file("/a", b"x" * 1000)
        assert triple.counters.network_bytes > single.counters.network_bytes

    def test_placement_balances_load(self, dfs):
        for index in range(20):
            dfs.write_file(f"/f{index}", b"b" * 64)
        utilizations = [
            node.used_bytes / node.capacity_bytes for node in dfs.nodes
        ]
        assert max(utilizations) <= 2 * min(utilizations) + 1e-9

    def test_capacity_exhaustion(self):
        tiny = DistributedFileSystem(
            num_nodes=2, replication=2, node_capacity=128, block_size=64
        )
        tiny.write_file("/a", b"x" * 128)
        with pytest.raises(EngineError):
            tiny.write_file("/b", b"x" * 128)

    def test_parameter_validation(self):
        with pytest.raises(EngineError):
            DistributedFileSystem(num_nodes=0)
        with pytest.raises(EngineError):
            DistributedFileSystem(num_nodes=2, replication=3)
        with pytest.raises(EngineError):
            DistributedFileSystem(block_size=0)


class TestFaultTolerance:
    def test_data_survives_single_node_loss(self, dfs):
        payload = b"durable" * 50
        dfs.write_file("/a", payload)
        dfs.fail_node(0)
        assert dfs.read_file("/a").data == payload
        assert not dfs.lost_blocks()

    def test_under_replication_detected_and_repaired(self, dfs):
        dfs.write_file("/a", b"r" * 500)
        dfs.fail_node(1)
        under = dfs.under_replicated_blocks()
        if under:  # node 1 held at least one replica
            copies = dfs.re_replicate()
            assert copies == len(under)
        assert dfs.under_replicated_blocks() == []
        for node_ids in dfs._block_locations.values():  # noqa: SLF001
            assert len(node_ids) == 2

    def test_unreplicated_data_is_lost(self):
        fragile = DistributedFileSystem(num_nodes=2, replication=1,
                                        block_size=64)
        fragile.write_file("/a", b"gone" * 64)
        # Fail both nodes: every block loses its only replica.
        fragile.fail_node(0)
        fragile.fail_node(1)
        assert fragile.lost_blocks()

    def test_fail_unknown_node(self, dfs):
        with pytest.raises(EngineError):
            dfs.fail_node(99)


class TestCfsWorkload:
    @pytest.fixture()
    def text_data(self):
        return RandomTextGenerator(document_length=12, seed=5).generate(40)

    def test_full_cycle_runs(self, text_data):
        result = CfsWorkload().run(DistributedFileSystem(), text_data, files=4)
        assert result.output["files"] == 4
        assert result.simulated_seconds > 0
        means = result.output["mean_latency_by_op"]
        assert all(means[op] > 0 for op in ("write", "read", "append",
                                            "delete"))

    def test_files_deleted_at_end(self, text_data):
        engine = DistributedFileSystem()
        CfsWorkload().run(engine, text_data, files=4)
        assert sum(node.used_bytes for node in engine.nodes) == 0

    def test_write_throughput_reported(self, text_data):
        result = CfsWorkload().run(DistributedFileSystem(), text_data)
        assert result.extra["write_throughput_bytes_per_second"] > 0

    def test_registered_and_prescribed(self):
        from repro.core import registry
        from repro.core.test_generator import TestGenerator

        assert "cfs" in registry.workloads
        test = TestGenerator().generate("micro-cfs", "dfs", 30)
        result = test.run()
        assert result.engine == "dfs"

    def test_empty_dataset_rejected(self):
        from repro.datagen.base import DataType
        from tests._datasets import as_dataset

        empty = as_dataset([], DataType.TEXT)
        with pytest.raises(ExecutionError):
            CfsWorkload().run(DistributedFileSystem(), empty)

    def test_invalid_file_count(self, text_data):
        with pytest.raises(ExecutionError):
            CfsWorkload().run(DistributedFileSystem(), text_data, files=0)


def _per_document_lines(documents, hasher):
    """The encoder as it stood before it worked by the block: one
    ``encode`` and one digest update per document (the oracle)."""
    first = True
    for document in documents:
        piece = document.encode() if first else b"\n" + document.encode()
        first = False
        hasher.update(piece)
        yield piece


def _documents(count: int, shape: str) -> list[str]:
    if shape == "random-text":
        return RandomTextGenerator(document_length=7, seed=count).generate(
            count
        ).records
    if shape == "empty":
        return [""] * count
    # Multi-byte UTF-8 (two-, three- and four-byte sequences), some of
    # the documents empty.
    words = ["naïve", "日本語", "𝄞 clef", "", "plain"]
    return [words[index % len(words)] * (index % 3) for index in range(count)]


COUNTS = sorted(
    {0, 1, 255, 256, 257}
    | {_DOCUMENTS_PER_CHUNK - 1, _DOCUMENTS_PER_CHUNK, _DOCUMENTS_PER_CHUNK + 1}
)


class TestBlockedEncoder:
    """``_encoded_lines`` joins, encodes and hashes a block of documents
    at a time; every byte, digest and stored block equals the
    per-document encoder's."""

    @pytest.mark.parametrize("shape", ["random-text", "empty", "utf-8"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_same_bytes_and_digest(self, count, shape):
        documents = _documents(count, shape)
        blocked, per_document = hashlib.sha256(), hashlib.sha256()
        data = b"".join(_encoded_lines(iter(documents), blocked))
        assert data == b"".join(_per_document_lines(documents, per_document))
        assert data == "\n".join(documents).encode()
        assert blocked.hexdigest() == per_document.hexdigest()

    @pytest.mark.parametrize("shape", ["random-text", "utf-8"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_same_stored_blocks_and_counters(self, count, shape):
        documents = _documents(count, shape)
        stored = []
        for encoder in (_encoded_lines, _per_document_lines):
            dfs = DistributedFileSystem(block_size=64)
            report = dfs.write_stream(
                "/f", encoder(iter(documents), hashlib.sha256())
            )
            entry = dfs._namespace["/f"]  # noqa: SLF001 - white-box check
            stored.append(
                (
                    [dfs.nodes[dfs._block_locations[block][0]].blocks[block]
                     for block in entry.block_ids],
                    {block: dfs._block_locations[block]
                     for block in entry.block_ids},
                    report.bytes_moved,
                    report.simulated_seconds,
                    dfs.counters.bytes_written,
                    dfs.counters.network_bytes,
                )
            )
        assert stored[0] == stored[1]

    def test_a_chunked_run_equals_the_materialized_run(self):
        """Every reported number but the wall-clock ``duration``: the
        DFS's latencies, rates and counters are simulated."""

        def observed(**spec):
            report = api.run("micro-cfs", volume=700, **spec)
            (result,) = report.results
            metrics = {
                name: stats.samples
                for name, stats in result.metrics.items()
                if name != "duration"
            }
            return report.step("data-generation").detail, metrics, result.extra

        chunked_detail, *chunked = observed(chunk_size=50)
        detail, *materialized = observed()
        assert chunked_detail["streamed"] and "streamed" not in detail
        assert chunked == materialized
