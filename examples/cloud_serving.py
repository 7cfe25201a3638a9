"""Cloud-serving (OLTP) scenario: YCSB mixes, hybrid traffic, velocity.

1. run YCSB workload mixes A/B/E against the partitioned NoSQL store and
   compare against the DBMS serving the same operations (the YCSB paper's
   NoSQL-vs-relational comparison, Section 4.2);
2. demonstrate the *data updating frequency* facet of velocity:
   streams generated at a requested update frequency, observed by the
   ``rolling-update-rate`` workload;
3. run the Section 5.2 "truly hybrid workload": serving traffic with an
   arrival pattern profiled from web logs, interleaved with analytics
   scans, and show the interference.

Run:  python examples/cloud_serving.py
"""

from __future__ import annotations

from repro import api
from repro._util import percentile
from repro.datagen import PoissonArrivals, StreamGenerator
from repro.datagen.corpus import load_retail_tables
from repro.datagen.kv import KeyValueGenerator
from repro.datagen.weblog import WebLogGenerator
from repro.engines.dbms import DbmsEngine
from repro.engines.nosql import NoSqlStore
from repro.engines.streaming import StreamingEngine
from repro.workloads import (
    HybridWorkload,
    RollingUpdateRateWorkload,
    YcsbWorkload,
    profile_arrival_pattern,
)


def main() -> None:
    records = KeyValueGenerator(field_count=10, field_length=100,
                                seed=3).generate(400)
    ycsb = YcsbWorkload()

    # -- 1. YCSB mixes on NoSQL vs DBMS --------------------------------------
    print("YCSB operation mixes (400 records, 800 operations):")
    print(f"{'mix':4s} {'engine':8s} {'mean':>10s} {'p99':>10s}")
    for mix in ("A", "B", "E"):
        for engine in (NoSqlStore(num_partitions=8, replication=2, seed=4),
                       DbmsEngine()):
            result = ycsb.run(engine, records, workload_mix=mix,
                              operation_count=800, seed=5)
            ordered = sorted(result.latencies)
            print(f"{mix:4s} {result.engine:8s} "
                  f"{1e3 * sum(ordered) / len(ordered):9.3f}ms "
                  f"{1e3 * percentile(ordered, 0.99):9.3f}ms")

    # -- 2. controlled update frequency --------------------------------------
    print("\nControlled data-updating frequency (the Table 1 gap):")
    shipped = api.run("realtime-update-rate", volume=6000).results[0]
    print(f"  repro run realtime-update-rate (1000 events/s, one update "
          f"in five) -> observed {shipped.extra['update_rate']:5.0f} "
          f"updates/s")
    for frequency in (100.0, 1000.0):
        stream = StreamGenerator(
            arrivals=PoissonArrivals(2 * frequency), update_fraction=0.5,
            delete_fraction=0.1, key_space=400, seed=6,
        ).generate(int(2 * frequency * 3.0))
        observed = RollingUpdateRateWorkload().run(StreamingEngine(), stream)
        print(f"  requested {frequency:7.0f} updates/s -> observed "
              f"{observed.extra['update_rate']:7.0f} updates/s")

    # -- 3. hybrid workload with profiled arrivals ---------------------------
    tables = load_retail_tables()
    weblog = WebLogGenerator(tables["customers"], tables["products"],
                             seed=8).generate(600)
    pattern = profile_arrival_pattern(weblog)
    print("\nArrival pattern profiled from web logs:")
    for operation, rate in sorted(pattern.rates.items()):
        print(f"  {operation:8s} {rate:8.1f} ops/s")

    hybrid = HybridWorkload().run(
        NoSqlStore(num_partitions=8, seed=9), records,
        arrival_pattern=pattern, operation_count=1000,
        analytics_every=50, analytics_scan_length=300,
    )
    print("\nHybrid run (serving + interleaved analytics scans):")
    for op_class, mean_latency in sorted(
        hybrid.output["mean_latency_by_class"].items()
    ):
        count = hybrid.extra["per_class_counts"][op_class]
        print(f"  {op_class:8s} {count:5d} ops, "
              f"mean {mean_latency * 1e3:7.3f} ms")
    print(f"Total simulated service time: "
          f"{hybrid.simulated_seconds:.3f}s for {hybrid.records_out} ops")


if __name__ == "__main__":
    main()
