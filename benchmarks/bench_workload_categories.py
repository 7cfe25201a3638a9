"""E11 — Table 2's three workload categories, measured with the right
user-perceivable metric for each.

* online services → request latency (YCSB mix on the NoSQL store),
* offline analytics → job duration/throughput (sort, wordcount, PageRank),
* real-time analytics → keeping up with the arrival rate (windowed
  aggregation on the streaming engine).
"""

from __future__ import annotations

import pytest
from conftest import print_banner

from repro import api
from repro.execution.report import ascii_table


def _run(prescription: str, engine: str, volume: int, **params):
    """The one result of ``prescription`` on ``engine``, two repeats."""
    report = api.run(
        prescription, engines=[engine], volume=volume, repeats=2,
        params=params,
    )
    return report.results[0]


def test_online_services_latency(benchmark):
    def run():
        return _run("oltp-read-write", "nosql", 300, operation_count=500)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("E11", "online services — request latency (YCSB A)")
    print(
        ascii_table(
            [{
                "mean latency (ms)": result.mean("mean_latency") * 1e3,
                "p95 (ms)": result.mean("latency_p95") * 1e3,
                "p99 (ms)": result.mean("latency_p99") * 1e3,
                "throughput (ops/s)": result.mean("throughput"),
            }]
        )
    )
    assert result.mean("latency_p99") >= result.mean("mean_latency")


@pytest.mark.parametrize(
    "prescription,volume",
    [("micro-sort", 300), ("micro-wordcount", 300), ("search-pagerank", 256)],
)
def test_offline_analytics_duration(benchmark, prescription, volume):
    def run():
        return _run(prescription, "mapreduce", volume)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("E11", f"offline analytics — {prescription}")
    print(
        ascii_table(
            [{
                "duration (s)": result.mean("duration"),
                "throughput (rec/s)": result.mean("throughput"),
                "ops/s (architecture)": result.mean("ops_per_second"),
                "energy (J)": result.mean("energy"),
            }]
        )
    )
    assert result.mean("duration") > 0


def test_realtime_analytics_keeping_up(benchmark):
    from repro.datagen import PoissonArrivals, StreamGenerator
    from repro.engines.streaming import StreamingEngine
    from repro.workloads import WindowedAggregationWorkload

    stream = StreamGenerator(
        arrivals=PoissonArrivals(5000.0), key_space=8, seed=11
    ).generate(4000)

    def run_both_regimes():
        rows = []
        for label, service in (("keeping up", 50e-6), ("overloaded", 500e-6)):
            engine = StreamingEngine(service_seconds_per_event=service)
            result = WindowedAggregationWorkload().run(engine, stream)
            rows.append(
                {
                    "regime": label,
                    "arrival (ev/s)": result.extra["arrival_rate"],
                    "service (ev/s)": result.extra["service_rate"],
                    "keeps up": result.extra["keeps_up"],
                    "backlog (s)": result.extra["backlog_seconds"],
                    "max latency (ms)": max(result.latencies) * 1e3,
                }
            )
        return rows

    rows = benchmark.pedantic(run_both_regimes, rounds=2, iterations=1)
    print_banner("E11", "real-time analytics — processing speed vs arrivals")
    print(ascii_table(rows))
    assert rows[0]["keeps up"] and not rows[1]["keeps up"]
    assert rows[1]["backlog (s)"] > rows[0]["backlog (s)"]
