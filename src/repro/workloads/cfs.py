"""Cloud-file-system (CFS) micro workload.

BigDataBench's micro benchmarks list "CFS" alongside sort/grep/WordCount:
basic DFS read/write operations.  This workload writes a text data set
into the simulated DFS as files, reads it back, verifies integrity,
appends, deletes, and reports per-operation simulated latencies — the
HDFS micro benchmark (a TestDFSIO analogue) at laptop scale.

Writes stream a block of records at a time into
:meth:`DistributedFileSystem.write_stream` and integrity is verified
against an incrementally computed digest, so the workload never holds a
file payload (let alone the data set) in memory — it works identically
over a materialized :class:`DataSet` and a streaming
:class:`~repro.datagen.source.DatasetSource`.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterator
from typing import Any

from repro._util import batched, sequential_sum
from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.datagen.source import DatasetSource
from repro.engines.base import CostCounters
from repro.engines.dfs import DistributedFileSystem
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


#: Documents per encoded chunk: one join, one encode and one digest
#: update per block, never the whole file at once.  At 16 random-text
#: documents (about 5 KB) a file takes 2 % longer than at 64, and peaks
#: 0.15 MB lower: larger chunks, once freed, leave gaps among the DFS's
#: 4 KB blocks (EXPERIMENTS.md "Generation without per-item overhead").
_DOCUMENTS_PER_CHUNK = 16


def _encoded_lines(
    documents: Iterator[str], hasher: "hashlib._Hash"
) -> Iterator[bytes]:
    """Documents as newline-joined byte chunks, hashing as they pass.

    Yields exactly the bytes ``"\\n".join(documents).encode()`` would
    produce, :data:`_DOCUMENTS_PER_CHUNK` documents at a time.
    """
    separator = ""
    for block in batched(documents, _DOCUMENTS_PER_CHUNK):
        piece = (separator + "\n".join(block)).encode()
        separator = "\n"
        hasher.update(piece)
        yield piece


class CfsWorkload(Workload):
    """DFS read/write/append/delete micro benchmark."""

    name = "cfs"
    domain = ApplicationDomain.MICRO
    category = WorkloadCategory.ONLINE_SERVICE
    data_type = DataType.TEXT
    #: Files are written as streams and verified by digest — no payload
    #: is retained, so a streaming source passes through untouched.
    streaming_input = True
    abstract_operations = tuple(
        operations("write", "read", "update", "delete")
    )
    pattern = MultiOperationPattern(
        operations("write", "read", "update", "delete")
    )

    def run_dfs(
        self,
        engine: DistributedFileSystem,
        dataset: DataSet | DatasetSource,
        files: int = 8,
        **params: Any,
    ) -> WorkloadResult:
        if dataset.num_records == 0:
            raise ExecutionError("CFS workload needs a non-empty data set")
        if files <= 0:
            raise ExecutionError(f"files must be positive, got {files}")

        # Pack the documents into `files` roughly equal files, streaming:
        # each file's bytes flow straight into the DFS while a digest is
        # computed on the way past.
        per_file = max(1, dataset.num_records // files)
        records = iter(dataset)
        file_meta: list[tuple[str, str, int]] = []  # (path, digest, size)

        latencies: dict[str, list[float]] = {
            "write": [], "read": [], "append": [], "delete": [],
        }
        bytes_total = 0
        for index in range(files):
            chunk = itertools.islice(records, per_file)
            probe = next(chunk, None)
            if probe is None:
                break
            path = f"/bench/part-{index:05d}"
            hasher = hashlib.sha256()
            report = engine.write_stream(
                path, _encoded_lines(itertools.chain([probe], chunk), hasher)
            )
            latencies["write"].append(report.simulated_seconds)
            file_meta.append((path, hasher.hexdigest(), report.bytes_moved))
            bytes_total += report.bytes_moved
        for path, digest, size in file_meta:
            report = engine.read_file(path)
            latencies["read"].append(report.simulated_seconds)
            if (
                report.data is None
                or len(report.data) != size
                or hashlib.sha256(report.data).hexdigest() != digest
            ):
                raise ExecutionError(f"DFS read-back mismatch for {path!r}")
        for path, _, _ in file_meta[: max(1, len(file_meta) // 2)]:
            report = engine.append(path, b"\nappended-line")
            latencies["append"].append(report.simulated_seconds)
        for path, _, _ in file_meta:
            report = engine.delete_file(path)
            latencies["delete"].append(report.simulated_seconds)

        simulated = sequential_sum(map(sequential_sum, latencies.values()))
        all_latencies = [
            value for samples in latencies.values() for value in samples
        ]
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output={
                "files": len(file_meta),
                "bytes": bytes_total,
                "mean_latency_by_op": {
                    op: (
                        sequential_sum(samples) / len(samples)
                        if samples else 0.0
                    )
                    for op, samples in latencies.items()
                },
            },
            records_in=dataset.num_records,
            records_out=len(file_meta),
            duration_seconds=0.0,  # filled by the dispatcher
            cost=CostCounters().merge(engine.counters),
            latencies=all_latencies,
            simulated_seconds=simulated,
            extra={
                "write_throughput_bytes_per_second":
                    bytes_total / sequential_sum(latencies["write"])
                    if latencies["write"] else 0.0,
            },
        )
