"""A simulated distributed file system (the HDFS substitute).

BigDataBench's micro benchmarks include "CFS" (cloud file system)
workloads — basic DFS read/write operations.  This module provides the
substrate: a block-based namespace (namenode) over simulated datanodes
with R-way block replication, rack-aware-ish placement (round robin with
per-node load balancing), and a throughput/latency model so reads and
writes report simulated times the way the other engines do.

Data is held in memory; the simulation is in the *placement and cost
accounting*, which is what a file-system micro benchmark measures.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.errors import EngineError
from repro.engines.base import Engine


@dataclass
class FileEntry:
    """Namespace entry: an ordered list of block ids plus size."""

    path: str
    block_ids: list[int] = field(default_factory=list)
    size: int = 0


@dataclass
class DfsOpReport:
    """Simulated outcome of one DFS operation."""

    ok: bool
    simulated_seconds: float
    bytes_moved: int = 0
    data: bytes | None = None


@dataclass
class DataNode:
    """One simulated storage node."""

    node_id: int
    capacity_bytes: int
    used_bytes: int = 0
    blocks: dict[int, bytes] = field(default_factory=dict)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def store(self, block_id: int, data: bytes) -> None:
        if len(data) > self.free_bytes:
            raise EngineError(
                f"datanode {self.node_id} is full "
                f"({self.free_bytes} bytes free, block needs {len(data)})"
            )
        self.blocks[block_id] = data
        self.used_bytes += len(data)

    def evict(self, block_id: int) -> None:
        data = self.blocks.pop(block_id, None)
        if data is not None:
            self.used_bytes -= len(data)


class DistributedFileSystem(Engine):
    """Block-based DFS with replication and a throughput model."""

    name = "dfs"
    software_stack = "distributed file system (HDFS substitute)"

    def __init__(
        self,
        num_nodes: int = 4,
        block_size: int = 4096,
        replication: int = 2,
        node_capacity: int = 64 * 1024 * 1024,
        disk_bytes_per_second: float = 200e6,
        network_bytes_per_second: float = 100e6,
        seek_seconds: float = 5e-3,
    ) -> None:
        super().__init__()
        if num_nodes <= 0:
            raise EngineError(f"num_nodes must be positive, got {num_nodes}")
        if block_size <= 0:
            raise EngineError(f"block_size must be positive, got {block_size}")
        if not 1 <= replication <= num_nodes:
            raise EngineError(
                f"replication must be in [1, {num_nodes}], got {replication}"
            )
        self.block_size = block_size
        self.replication = replication
        self.disk_bytes_per_second = disk_bytes_per_second
        self.network_bytes_per_second = network_bytes_per_second
        self.seek_seconds = seek_seconds
        self.nodes = [
            DataNode(node_id=i, capacity_bytes=node_capacity)
            for i in range(num_nodes)
        ]
        self._namespace: dict[str, FileEntry] = {}
        self._block_locations: dict[int, list[int]] = {}
        self._next_block_id = 0


    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _choose_replica_nodes(self, size: int) -> list[DataNode]:
        """The R least-loaded nodes with room for the block."""
        candidates = sorted(self.nodes, key=lambda node: node.used_bytes)
        chosen = [node for node in candidates if node.free_bytes >= size]
        if len(chosen) < self.replication:
            raise EngineError(
                "insufficient DFS capacity for a new block "
                f"(need {self.replication} nodes with {size} bytes free)"
            )
        return chosen[: self.replication]

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------

    def _write_block(self, entry: FileEntry, block: bytes) -> float:
        """Place one block on R replicas; returns the simulated seconds."""
        block_id = self._next_block_id
        self._next_block_id += 1
        replicas = self._choose_replica_nodes(len(block))
        for node in replicas:
            node.store(block_id, block)
        self._block_locations[block_id] = [n.node_id for n in replicas]
        entry.block_ids.append(block_id)
        # Pipeline write: one disk write plus (R-1) network hops.
        simulated = self.seek_seconds
        simulated += len(block) / self.disk_bytes_per_second
        simulated += (
            (self.replication - 1) * len(block)
            / self.network_bytes_per_second
        )
        self.counters.network_bytes += (self.replication - 1) * len(block)
        return simulated

    def write_file(self, path: str, data: bytes) -> DfsOpReport:
        """Create (or overwrite) a file, splitting it into blocks."""
        return self.write_stream(path, (data,))

    def write_stream(self, path: str, chunks: Iterable[bytes]) -> DfsOpReport:
        """Create (or overwrite) a file from a stream of byte chunks.

        Blocks are cut and placed as the stream arrives, so peak memory
        is one block plus one chunk — never the whole file.  Chunk
        boundaries don't affect the stored blocks: the same bytes produce
        the same block layout whether written whole or chunked.
        """
        if path in self._namespace:
            self.delete_file(path)
        entry = FileEntry(path=path)
        simulated = 0.0
        total = 0
        buffer = bytearray()
        for chunk in chunks:
            buffer.extend(chunk)
            while len(buffer) >= self.block_size:
                block = bytes(buffer[: self.block_size])
                del buffer[: self.block_size]
                simulated += self._write_block(entry, block)
                total += len(block)
        if buffer or not entry.block_ids:
            # Flush the remainder; an empty stream still creates one
            # empty block, matching write_file(path, b"").
            block = bytes(buffer)
            simulated += self._write_block(entry, block)
            total += len(block)
        entry.size = total
        self._namespace[path] = entry
        self.counters.records_written += 1
        self.counters.bytes_written += total
        return DfsOpReport(
            ok=True, simulated_seconds=simulated, bytes_moved=total
        )

    def read_file(self, path: str) -> DfsOpReport:
        """Read a whole file, preferring the least-loaded replica."""
        entry = self._namespace.get(path)
        if entry is None:
            return DfsOpReport(ok=False, simulated_seconds=self.seek_seconds)
        chunks: list[bytes] = []
        simulated = 0.0
        for block_id in entry.block_ids:
            node_ids = self._block_locations[block_id]
            node = min(
                (self.nodes[node_id] for node_id in node_ids),
                key=lambda n: n.used_bytes,
            )
            block = node.blocks[block_id]
            chunks.append(block)
            simulated += self.seek_seconds
            simulated += len(block) / self.disk_bytes_per_second
        data = b"".join(chunks)
        self.counters.records_read += 1
        self.counters.bytes_read += len(data)
        return DfsOpReport(
            ok=True, simulated_seconds=simulated,
            bytes_moved=len(data), data=data,
        )

    def append(self, path: str, data: bytes) -> DfsOpReport:
        """Append to an existing file (new blocks only; no partial fill).

        Appends blocks directly — the file is never read back or
        rewritten, so appending costs O(appended), not O(file).  Reads
        concatenate blocks in order, so content is identical to a full
        rewrite (the last pre-append block may simply stay short).
        """
        entry = self._namespace.get(path)
        if entry is None:
            return self.write_file(path, data)
        simulated = 0.0
        for offset in range(0, max(len(data), 1), self.block_size):
            simulated += self._write_block(
                entry, data[offset : offset + self.block_size]
            )
        entry.size += len(data)
        self.counters.records_written += 1
        self.counters.bytes_written += len(data)
        return DfsOpReport(
            ok=True, simulated_seconds=simulated, bytes_moved=len(data)
        )

    def delete_file(self, path: str) -> DfsOpReport:
        entry = self._namespace.pop(path, None)
        if entry is None:
            return DfsOpReport(ok=False, simulated_seconds=self.seek_seconds)
        for block_id in entry.block_ids:
            for node_id in self._block_locations.pop(block_id, ()):
                self.nodes[node_id].evict(block_id)
        return DfsOpReport(ok=True, simulated_seconds=self.seek_seconds)

    def exists(self, path: str) -> bool:
        return path in self._namespace

    # ------------------------------------------------------------------
    # Fault injection & maintenance
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> int:
        """Simulate a datanode loss; returns blocks needing re-replication.

        Surviving replicas keep every file readable (as long as R ≥ 2);
        :meth:`re_replicate` restores the replication factor.
        """
        if not 0 <= node_id < len(self.nodes):
            raise EngineError(f"no such node: {node_id}")
        node = self.nodes[node_id]
        lost_blocks = list(node.blocks)
        for block_id in lost_blocks:
            node.evict(block_id)
            self._block_locations[block_id].remove(node_id)
        return len(lost_blocks)

    def under_replicated_blocks(self) -> list[int]:
        return [
            block_id
            for block_id, nodes in self._block_locations.items()
            if 0 < len(nodes) < self.replication
        ]

    def re_replicate(self) -> int:
        """Copy under-replicated blocks to healthy nodes; returns copies."""
        copies = 0
        for block_id in self.under_replicated_blocks():
            current = set(self._block_locations[block_id])
            source = self.nodes[next(iter(current))]
            data = source.blocks[block_id]
            candidates = sorted(
                (n for n in self.nodes
                 if n.node_id not in current and n.free_bytes >= len(data)),
                key=lambda n: n.used_bytes,
            )
            needed = self.replication - len(current)
            for node in candidates[:needed]:
                node.store(block_id, data)
                self._block_locations[block_id].append(node.node_id)
                self.counters.network_bytes += len(data)
                copies += 1
        return copies

    def lost_blocks(self) -> list[int]:
        """Blocks with zero live replicas (data loss)."""
        return [
            block_id
            for block_id, nodes in self._block_locations.items()
            if not nodes
        ]
