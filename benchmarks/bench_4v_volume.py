"""E7 — volume scalability: generation time vs data volume.

Section 2.1's volume requirement: generators "must be able to generate
different volumes of data".  Expected shape: near-linear growth of
generation time with volume for every data type (doubling volume must
not blow up super-linearly).
"""

from __future__ import annotations

import time

import pytest
from conftest import print_banner

from repro.core.prescription import load_seed
from repro.datagen import (
    FittedTableGenerator,
    RmatGraphGenerator,
    StreamGenerator,
    UnigramTextGenerator,
)
from repro.datagen.kv import KeyValueGenerator
from repro.execution.report import ascii_table

VOLUMES = (200, 400, 800, 1600)


def _sweep(generator, volumes=VOLUMES):
    rows = []
    for volume in volumes:
        started = time.perf_counter()
        dataset = generator.generate(volume)
        elapsed = time.perf_counter() - started
        rows.append(
            {"volume": volume, "seconds": elapsed,
             "records": dataset.num_records,
             "rate (rec/s)": dataset.num_records / elapsed if elapsed else 0}
        )
    return rows


def _assert_no_superlinear_blowup(rows, tolerance=4.0):
    """Per-record time at the largest volume must not exceed the smallest
    volume's by more than `tolerance`× — i.e. growth stays ~linear.
    (Per-record time *falling* with volume is fine: constant overheads
    amortise.)"""
    first = rows[0]["seconds"] / rows[0]["volume"]
    last = rows[-1]["seconds"] / rows[-1]["volume"]
    assert last <= tolerance * first + 1e-9


@pytest.mark.parametrize(
    "name,factory",
    [
        ("text", lambda: UnigramTextGenerator(seed=1).fit(load_seed("text-corpus"))),
        ("table", lambda: FittedTableGenerator(seed=2).fit(load_seed("retail-orders"))),
        ("graph", lambda: RmatGraphGenerator(seed=3)),
        ("stream", lambda: StreamGenerator(seed=4)),
        ("key-value", lambda: KeyValueGenerator(field_count=4, field_length=20, seed=5)),
    ],
)
def test_volume_scaling(benchmark, name, factory):
    generator = factory()
    rows = benchmark.pedantic(_sweep, args=(generator,), rounds=1, iterations=1)
    print_banner("E7", f"volume sweep — {name}")
    print(ascii_table(rows))
    _assert_no_superlinear_blowup(rows)
    # Volume is controlled exactly: record counts scale with the requested
    # volume (graphs measure volume in vertices but emit edges, a constant
    # factor more records).
    unit = rows[0]["records"] / VOLUMES[0]
    assert [row["records"] for row in rows] == [
        int(unit * volume) for volume in VOLUMES
    ]


def test_workload_time_scales_with_volume(benchmark, framework):
    """Downstream view: execution time also tracks data volume."""
    from repro import api

    def sweep():
        return api.sweep(
            "micro-wordcount", "mapreduce", volumes=[100, 200, 400]
        )

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    series = report.series("duration")
    print_banner("E7", "workload duration vs input volume (wordcount)")
    print(ascii_table([{"volume": v, "duration_s": d} for v, d in series]))
    assert series[-1][1] > series[0][1]
