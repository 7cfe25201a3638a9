"""E5 — Figure 3: the four-step data-generation process.

One run per data type through all four steps: select real data → fit the
data model (veracity) → control volume/velocity → convert format.  Prints
the evidence each step produced.
"""

from __future__ import annotations

from conftest import print_banner

from repro.core.prescription import load_seed
from repro.datagen import (
    FittedTableGenerator,
    LdaTextGenerator,
    RmatGraphGenerator,
    StreamGenerator,
    convert,
    graph_veracity,
    table_veracity,
    text_veracity,
)
from repro.execution.report import ascii_table


def test_text_pipeline(benchmark):
    """Figure 3 for text: corpus → LDA fit → generate → convert."""
    seed = load_seed("text-corpus")

    def pipeline():
        generator = LdaTextGenerator(iterations=8, seed=1).fit(seed)
        dataset = generator.generate_parallel(80, num_partitions=4)
        converted = convert(dataset, "text-lines")
        veracity = text_veracity(seed.records, dataset.records)
        return dataset, converted, veracity

    dataset, converted, veracity = benchmark.pedantic(
        pipeline, rounds=2, iterations=1
    )
    print_banner("E5", "text generation pipeline (LDA)")
    print(
        ascii_table(
            [{
                "records": dataset.num_records,
                "partitions": 4,
                "format": converted.format_name,
                "veracity JS": veracity.score,
                "faithful": veracity.is_faithful,
            }]
        )
    )
    assert veracity.is_faithful


def test_table_pipeline(benchmark):
    seed = load_seed("retail-orders")

    def pipeline():
        generator = FittedTableGenerator(seed=2).fit(seed)
        dataset = generator.generate(400)
        converted = convert(dataset, "csv")
        veracity = table_veracity(seed.records, dataset.records)
        return dataset, converted, veracity

    dataset, converted, veracity = benchmark(pipeline)
    print_banner("E5", "table generation pipeline (fitted distributions)")
    print(
        ascii_table(
            [{
                "rows": dataset.num_records,
                "csv lines": len(converted),
                "veracity JS": veracity.score,
                "faithful": veracity.is_faithful,
            }]
        )
    )
    assert veracity.is_faithful


def test_graph_pipeline(benchmark):
    seed = load_seed("social-graph")

    def pipeline():
        generator = RmatGraphGenerator(seed=3).fit(seed)
        dataset = generator.generate(512)
        converted = convert(dataset, "adjacency-list")
        veracity = graph_veracity(seed.records, dataset.records)
        return dataset, converted, veracity

    dataset, converted, veracity = benchmark.pedantic(
        pipeline, rounds=2, iterations=1
    )
    print_banner("E5", "graph generation pipeline (fitted R-MAT)")
    print(
        ascii_table(
            [{
                "edges": dataset.num_records,
                "vertices": len(converted.payload),
                "veracity JS": veracity.score,
                "faithful": veracity.is_faithful,
            }]
        )
    )
    assert veracity.is_faithful


def test_stream_pipeline(benchmark):
    source = StreamGenerator(update_fraction=0.3, seed=4)
    real = source.generate(1500)

    def pipeline():
        generator = StreamGenerator(seed=5).fit(real)
        dataset = generator.generate(1500)
        from repro.datagen import stream_veracity

        veracity = stream_veracity(
            [event.timestamp for event in real.records],
            [event.timestamp for event in dataset.records],
        )
        return dataset, veracity

    dataset, veracity = benchmark(pipeline)
    print_banner("E5", "stream generation pipeline (fitted arrivals)")
    print(
        ascii_table(
            [{
                "events": dataset.num_records,
                "learned update fraction": round(
                    sum(1 for e in dataset.records
                        if e.kind.value == "update") / len(dataset.records), 3
                ),
                "veracity JS": veracity.score,
                "faithful": veracity.is_faithful,
            }]
        )
    )
    assert veracity.is_faithful
