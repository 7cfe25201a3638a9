"""Search-engine domain scenario (one of the paper's three major
internet-service domains).

The full 4V pipeline for a search-engine benchmark:

1. learn data models from "real" seeds — an LDA topic model from the text
   corpus, R-MAT parameters from the social web graph (veracity);
2. generate a synthetic document corpus and a synthetic link graph at the
   requested volume, in parallel partitions (volume + velocity);
3. verify the synthetic data against the seeds with divergence metrics;
4. run the domain's workloads: inverted-index build and PageRank.

Run:  python examples/search_engine.py
"""

from __future__ import annotations

from repro.core.prescription import load_seed
from repro.datagen import (
    LdaTextGenerator,
    RmatGraphGenerator,
    graph_veracity,
    text_veracity,
)
from repro.engines.mapreduce import MapReduceEngine
from repro.workloads import InvertedIndexWorkload, PageRankWorkload


def main() -> None:
    # -- Step 1+2: veracity-preserving generation --------------------------
    corpus_seed = load_seed("text-corpus")
    text_generator = LdaTextGenerator(num_topics=4, iterations=15, seed=42)
    text_generator.fit(corpus_seed)
    documents = text_generator.generate_parallel(400, num_partitions=4)
    print(f"Generated {documents.num_records} documents in 4 "
          f"independently seeded partitions")

    graph_seed = load_seed("social-graph")
    graph_generator = RmatGraphGenerator(seed=42).fit(graph_seed)
    web_graph = graph_generator.generate(1024)
    print(f"Generated web graph: {len(web_graph)} links, "
          f"R-MAT a={graph_generator.a:.2f}")

    # -- Step 3: veracity checks -------------------------------------------
    text_report = text_veracity(corpus_seed.records, documents.records)
    graph_report = graph_veracity(graph_seed.records, web_graph.records)
    print(f"Text veracity:  JS={text_report.score:.4f} "
          f"({'faithful' if text_report.is_faithful else 'NOT faithful'})")
    print(f"Graph veracity: JS={graph_report.score:.4f} "
          f"({'faithful' if graph_report.is_faithful else 'NOT faithful'})")

    # -- Step 4: the domain workloads ---------------------------------------
    index_result = InvertedIndexWorkload().run(MapReduceEngine(), documents)
    print(f"\nInverted index: {index_result.records_out} terms from "
          f"{index_result.records_in} documents "
          f"in {index_result.duration_seconds:.3f}s "
          f"(simulated cluster: {index_result.simulated_seconds:.4f}s)")
    sample_term = next(iter(sorted(index_result.output)))
    print(f"  e.g. postings[{sample_term!r}] = "
          f"{index_result.output[sample_term][:4]} ...")

    rank_result = PageRankWorkload().run(
        MapReduceEngine(), web_graph, tolerance=1e-4, max_iterations=25
    )
    top = sorted(rank_result.output.items(), key=lambda kv: -kv[1])[:5]
    print(f"\nPageRank converged after {rank_result.extra['iterations']} "
          f"iterations (the iterative-operation pattern: the job count was "
          f"only known at run time)")
    for vertex, rank in top:
        print(f"  vertex {vertex:5d}  rank {rank:.5f}")


if __name__ == "__main__":
    main()
