"""E10 — the functional view in action: one abstract test, many systems.

Section 2.2: abstract operations/patterns "allow the comparison of
systems of different types, e.g. a DBMS and a MapReduce system" and
"systems of the same type".  Two comparisons:

* the select→join→aggregate prescription on the DBMS vs the MapReduce
  engine (Pavlo-style, different system types);
* the YCSB operation mix on the NoSQL store vs the DBMS (YCSB-style,
  serving stores).

Expected shape: identical answers; the specialised system wins its home
turf (the DBMS on relational queries, per Pavlo's findings).
"""

from __future__ import annotations

from conftest import print_banner

from repro import api
from repro.core.results import ResultAnalyzer
from repro.core.spec import BenchmarkSpec
from repro.execution.plan import resolve
from repro.execution.report import ascii_table
from repro.execution.runner import RunnerOptions, TestRunner


def test_relational_query_dbms_vs_mapreduce(benchmark):
    # Its own runner: a spec has no warmup runs.
    runner = TestRunner(options=RunnerOptions(repeats=3, warmup_runs=1))
    spec = BenchmarkSpec(
        "database-aggregate-join", engines=["dbms", "mapreduce"], volume=400
    )
    tasks = resolve(spec, runner.test_generator.repository).tasks

    def compare():
        return ResultAnalyzer(runner.run_many(tasks))

    analyzer = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = analyzer.summary_rows(["duration", "ops_per_second", "energy"])
    print_banner("E10", "select→join→aggregate — DBMS vs MapReduce")
    print(ascii_table(rows))
    factors = analyzer.speedup("duration", baseline_engine="mapreduce")
    print(f"  speedup over MapReduce: {factors}")
    # Pavlo's shape: the DBMS wins relational queries.
    assert factors["dbms"] > 1.0


def test_relational_query_row_vs_columnar(benchmark):
    """The same cross-system prescription under both execution layouts:
    identical deterministic answers, and the recorded row-vs-columnar
    delta on the full five-step path (both engines' batch paths — DBMS
    vectorized operators, MapReduce combiner batching — engage)."""

    def run_layouts():
        reports = {}
        for layout in ("row", "columnar"):
            reports[layout] = api.run(
                "database-aggregate-join",
                engines=["dbms", "mapreduce"],
                volume=400,
                layout=layout,
            )
        return reports

    reports = benchmark.pedantic(run_layouts, rounds=1, iterations=1)
    rows = []
    for layout, report in reports.items():
        for result in report.results:
            rows.append(
                {
                    "layout": layout,
                    "engine": result.engine,
                    "duration_s": f"{result.mean('duration'):.4f}",
                    "executed as": result.extra.get("layout", "row"),
                }
            )
    print_banner("E10", "select→join→aggregate — row vs columnar layout")
    print(ascii_table(rows))

    def result_for(layout, engine_name):
        for result in reports[layout].results:
            if result.engine == engine_name:
                return result
        raise AssertionError(f"no {engine_name} result under {layout}")

    # The DBMS honestly reports the layout it executed, and the
    # columnar plan is the vectorized tree, not a row fallback.
    assert result_for("row", "dbms").extra["layout"] == "row"
    columnar_dbms = result_for("columnar", "dbms")
    assert columnar_dbms.extra["layout"] == "columnar"
    assert columnar_dbms.extra["plan"]["layout"] == "columnar"
    # MapReduce's deterministic architecture metrics agree across
    # layouts: combiner batching changes how the work runs (per-batch
    # partial aggregation), never the work itself.
    for name in ("throughput", "ops_per_second", "data_rate",
                 "network_rate", "energy", "cost"):
        assert result_for("row", "mapreduce").mean(name) == result_for(
            "columnar", "mapreduce"
        ).mean(name), name


def test_ycsb_mix_nosql_vs_dbms(benchmark):
    def compare():
        return api.run(
            "oltp-read-write", engines=["nosql", "dbms"], volume=300,
            repeats=2, params={"operation_count": 400},
        ).analyzer

    analyzer = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = analyzer.summary_rows(["mean_latency", "latency_p99", "throughput"])
    print_banner("E10", "YCSB mix A — NoSQL store vs DBMS")
    print(ascii_table(rows))
    for result in analyzer.results:
        assert result.mean("mean_latency") > 0


def test_consistency_latency_tradeoff(benchmark):
    """The YCSB paper's consistency dimension on the simulated store:
    stronger consistency costs latency; weak reads can observe the stale
    replicas weak writes leave behind."""
    from repro.engines.nosql import ConsistencyLevel, LatencyModel, NoSqlStore

    def drive():
        store = NoSqlStore(
            num_partitions=6, replication=3,
            latency=LatencyModel(jitter_sigma=0.0), seed=13,
        )
        for index in range(100):
            store.insert(f"k{index:04d}", {"v": "initial"})
        # Weakly consistent updates leave replication debt behind.
        for index in range(100):
            store.update(f"k{index:04d}", {"v": "updated"},
                         consistency=ConsistencyLevel.ONE)
        rows = []
        for level in (ConsistencyLevel.ONE, ConsistencyLevel.QUORUM,
                      ConsistencyLevel.ALL):
            latencies = []
            stale = 0
            for index in range(100):
                result = store.read(f"k{index:04d}", consistency=level)
                latencies.append(result.latency_seconds)
                if result.fields and result.fields["v"] != "updated":
                    stale += 1
            rows.append(
                {
                    "read consistency": level.value,
                    "mean latency (us)": 1e6 * sum(latencies) / len(latencies),
                    "stale reads / 100": stale,
                }
            )
        rows.append({"read consistency": "(pending repairs)",
                     "mean latency (us)": 0.0,
                     "stale reads / 100": store.pending_replications})
        return rows

    rows = benchmark.pedantic(drive, rounds=2, iterations=1)
    print_banner("E10", "consistency vs latency vs staleness (YCSB dimension)")
    print(ascii_table(rows))
    one, quorum, everyone = rows[0], rows[1], rows[2]
    assert one["mean latency (us)"] < quorum["mean latency (us)"]
    assert quorum["mean latency (us)"] < everyone["mean latency (us)"]
    assert one["stale reads / 100"] > 0       # weak reads see staleness
    assert quorum["stale reads / 100"] == 0   # quorum overlap stays fresh
    assert everyone["stale reads / 100"] == 0


def test_count_url_links_both_systems(benchmark):
    """Pavlo's count-URL-links on both system types, same answer."""
    from repro.datagen.corpus import load_retail_tables
    from repro.datagen.weblog import WebLogGenerator
    from repro.engines.dbms import DbmsEngine
    from repro.engines.mapreduce import MapReduceEngine
    from repro.workloads import CountUrlLinksWorkload

    tables = load_retail_tables()
    weblog = WebLogGenerator(tables["customers"], tables["products"],
                             seed=7).generate(600)
    workload = CountUrlLinksWorkload()

    def run_both():
        return (
            workload.run(DbmsEngine(), weblog),
            workload.run(MapReduceEngine(), weblog),
        )

    dbms_result, mr_result = benchmark.pedantic(run_both, rounds=2, iterations=1)
    assert sorted(dbms_result.output) == sorted(mr_result.output)
    print_banner("E10", "count URL links — identical answers on both systems")
    print(
        ascii_table(
            [
                {"engine": dbms_result.engine,
                 "paths": dbms_result.records_out,
                 "duration_s": dbms_result.duration_seconds},
                {"engine": mr_result.engine,
                 "paths": mr_result.records_out,
                 "duration_s": mr_result.duration_seconds},
            ]
        )
    )
