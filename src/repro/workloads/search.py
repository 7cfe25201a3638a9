"""Search-engine domain workloads: inverted-index build and PageRank.

BigDataBench's search-engine domain (Table 2): "index" and "PageRank".
The inverted index is the Nutch-indexing analogue; PageRank runs as an
iterative MapReduce job chain, exercising the paper's
*iterative-operation pattern* (the number of jobs is only known at run
time, when the ranks converge).
"""

from __future__ import annotations

from typing import Any

from repro._util import sequential_sum
from repro.core.operations import operations
from repro.core.patterns import (
    PAGERANK_STOP,
    IterativeOperationPattern,
    SingleOperationPattern,
)
from repro.datagen.base import DataSet, DataType
from repro.datagen.text import tokenize
from repro.engines.base import CostCounters
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


class InvertedIndexWorkload(Workload):
    """Build term → postings-list mappings from a document corpus."""

    name = "inverted-index"
    domain = ApplicationDomain.SEARCH_ENGINE
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.TEXT
    abstract_operations = tuple(operations("index"))
    pattern = SingleOperationPattern(operations("index")[0])

    def run_mapreduce(
        self, engine: MapReduceEngine, dataset: DataSet, **params: Any
    ) -> WorkloadResult:
        def index_map(doc_id: int, text: str):
            seen: dict[str, int] = {}
            for token in tokenize(text):
                seen[token] = seen.get(token, 0) + 1
            for token, frequency in seen.items():
                yield token, (doc_id, frequency)

        def index_reduce(token: str, postings: list[tuple[int, int]]):
            yield token, sorted(postings)

        job = MapReduceJob("inverted-index", index_map, index_reduce)
        result = engine.run(job, list(enumerate(dataset.records)))
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=dict(result.output),
            records_in=dataset.num_records,
            records_out=len(result.output),
            duration_seconds=result.wall_seconds,
            cost=result.cost,
            simulated_seconds=result.simulated_seconds,
        )


class PageRankWorkload(Workload):
    """Iterative PageRank over a graph (power iteration as MR job chain).

    Each iteration is one MapReduce job: mappers distribute rank mass
    along out-edges, reducers apply the damping formula.  Iteration stops
    when the L1 change in ranks falls under ``tolerance`` — the paper's
    iterative-operation pattern with a runtime stopping condition.
    """

    name = "pagerank"
    domain = ApplicationDomain.SEARCH_ENGINE
    category = WorkloadCategory.OFFLINE_ANALYTICS
    data_type = DataType.GRAPH
    abstract_operations = tuple(operations("rank"))
    pattern = IterativeOperationPattern(operations("rank"), PAGERANK_STOP)

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        damping: float = 0.85,
        tolerance: float | None = None,
        max_iterations: int | None = None,
        **params: Any,
    ) -> WorkloadResult:
        rule = self.pattern.stopping_condition
        if tolerance is None:
            tolerance = rule.tolerance
        if max_iterations is None:
            max_iterations = rule.max_iterations
        # Build adjacency once (the "graph building" job in real stacks).
        adjacency: dict[int, list[int]] = {}
        vertices: set[int] = set()
        for src, dst in dataset.records:
            adjacency.setdefault(src, []).append(dst)
            vertices.add(src)
            vertices.add(dst)
        if not vertices:
            return WorkloadResult(
                workload=self.name, engine=engine.name, output={},
                records_in=0, records_out=0, duration_seconds=0.0,
            )
        count = len(vertices)
        ranks = {vertex: 1.0 / count for vertex in vertices}
        total_cost = CostCounters()
        simulated = 0.0
        wall = 0.0
        iterations = 0
        delta = float("inf")

        while iterations < max_iterations and delta > tolerance:
            current = dict(ranks)
            # Mass on vertices without out-edges would otherwise leak;
            # redistribute it uniformly (the standard dangling-node fix).
            dangling = sequential_sum(
                rank for vertex, rank in current.items()
                if not adjacency.get(vertex)
            )
            dangling_share = dangling / count

            def rank_map(vertex: int, rank: float):
                # Keep the vertex alive even without in-edges.
                yield vertex, ("keep", 0.0)
                targets = adjacency.get(vertex, ())
                if targets:
                    share = rank / len(targets)
                    for target in targets:
                        yield target, ("mass", share)

            def rank_reduce(vertex: int, contributions: list[tuple[str, float]]):
                mass = 0
                for kind, value in contributions:
                    if kind == "mass":
                        mass += value
                yield vertex, (
                    (1.0 - damping) / count
                    + damping * (mass + dangling_share)
                )

            job = MapReduceJob(
                f"pagerank-iter-{iterations}",
                rank_map,
                rank_reduce,
                conf=JobConf(sort_keys=False),
            )
            result = engine.run(job, list(current.items()))
            new_ranks = dict(result.output)
            # Vertices with no in-edges still appear via the keep marker.
            delta = sequential_sum(
                abs(new_ranks.get(vertex, 0.0) - current[vertex])
                for vertex in vertices
            )
            ranks = new_ranks
            total_cost.merge(result.cost)
            simulated += result.simulated_seconds
            wall += result.wall_seconds
            iterations += 1

        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=ranks,
            records_in=len(dataset.records),
            records_out=len(ranks),
            duration_seconds=wall,
            cost=total_cost,
            simulated_seconds=simulated,
            extra={"iterations": iterations, "final_delta": delta},
        )
