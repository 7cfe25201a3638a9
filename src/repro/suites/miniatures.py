"""Runnable miniatures of the ten surveyed benchmark suites.

Table 2 lists what each suite runs; this module makes every row
executable on this repository's engines, at laptop scale.  A miniature is
not a faithful port (DESIGN.md §2 documents the substitution) — it is the
suite's *workload inventory* exercised end to end: the same operations,
categories, and software-stack shape, producing real measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ExecutionError
from repro.datagen.base import DataSet
from repro.datagen.corpus import load_retail_tables, load_text_corpus
from repro.datagen.graph import RmatGraphGenerator
from repro.datagen.kv import KeyValueGenerator
from repro.datagen.mixture import GaussianMixtureGenerator
from repro.datagen.sampling import reservoir_sample
from repro.datagen.table import TableGenerator, retail_star_schema
from repro.datagen.text import LdaTextGenerator, RandomTextGenerator
from repro.datagen.weblog import WebLogGenerator
from repro.engines.dbms import DbmsEngine, col, lit
from repro.engines.mapreduce import MapReduceEngine
from repro.engines.nosql import NoSqlStore
from repro.workloads import (
    ConnectedComponentsWorkload,
    CollaborativeFilteringWorkload,
    CountUrlLinksWorkload,
    GrepWorkload,
    InvertedIndexWorkload,
    KMeansWorkload,
    NaiveBayesWorkload,
    PageRankWorkload,
    RelationalQueryWorkload,
    SortWorkload,
    TeraSortWorkload,
    WordCountWorkload,
    YcsbWorkload,
)


@dataclass
class MiniatureReport:
    """What one suite miniature ran and measured."""

    suite: str
    runs: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def summary(self) -> dict[str, float]:
        """workload → duration seconds (uniform high-level view)."""
        summary = {}
        for name, result in self.runs.items():
            duration = getattr(result, "duration_seconds", None)
            if duration is None and isinstance(result, dict):
                duration = result.get("duration_seconds", 0.0)
            summary[name] = float(duration or 0.0)
        return summary


def _scaled(base: int, scale: float) -> int:
    return max(10, int(round(base * scale)))


def _text_data(scale: float, seed: int = 11) -> DataSet:
    return RandomTextGenerator(document_length=20, seed=seed).generate(
        _scaled(120, scale)
    )


def _lda_text(scale: float, seed: int = 12) -> DataSet:
    generator = LdaTextGenerator(iterations=10, seed=seed)
    generator.fit(load_text_corpus(num_documents=80, words_per_document=40))
    return generator.generate(_scaled(120, scale))


def _graph_data(scale: float, seed: int = 13) -> DataSet:
    return RmatGraphGenerator(seed=seed).generate(_scaled(128, scale))


def _kv_data(scale: float, seed: int = 14) -> DataSet:
    return KeyValueGenerator(field_count=4, field_length=20, seed=seed).generate(
        _scaled(200, scale)
    )


def _mixture_data(scale: float, seed: int = 15) -> DataSet:
    return GaussianMixtureGenerator(seed=seed).generate(_scaled(200, scale))


# ---------------------------------------------------------------------------
# Miniatures
# ---------------------------------------------------------------------------


def hibench_miniature(scale: float = 1.0) -> MiniatureReport:
    """HiBench: MapReduce micro + ML workloads on Hadoop-like stack."""
    report = MiniatureReport("HiBench", notes="offline analytics on MapReduce")
    text = _text_data(scale)
    report.runs["sort"] = SortWorkload().run(MapReduceEngine(), text)
    report.runs["wordcount"] = WordCountWorkload().run(MapReduceEngine(), text)
    report.runs["terasort"] = TeraSortWorkload().run(MapReduceEngine(), text)
    report.runs["pagerank"] = PageRankWorkload().run(
        MapReduceEngine(), _graph_data(scale), max_iterations=10
    )
    report.runs["kmeans"] = KMeansWorkload().run(
        MapReduceEngine(), _mixture_data(scale), num_clusters=4, max_iterations=8
    )
    lda = _lda_text(scale)
    report.runs["bayes"] = NaiveBayesWorkload().run(MapReduceEngine(), lda)
    report.runs["nutch-indexing"] = InvertedIndexWorkload().run(
        MapReduceEngine(), lda
    )
    return report


def gridmix_miniature(scale: float = 1.0) -> MiniatureReport:
    """GridMix: sort plus sampling a large data set, on MapReduce."""
    report = MiniatureReport("GridMix", notes="Hadoop mix jobs")
    text = _text_data(scale, seed=21)
    report.runs["sort"] = SortWorkload().run(MapReduceEngine(), text)
    sample = reservoir_sample(text.records, max(5, text.num_records // 10), seed=3)
    report.runs["sampling"] = {
        "records_in": text.num_records,
        "records_out": len(sample),
        "duration_seconds": 0.0,
    }
    return report


#: PigMix's "12 data queries", expressed in the SQL front-end so the
#: miniature exercises parser → planner → executor end to end.
PIGMIX_QUERIES: dict[str, str] = {
    "L1-project": "SELECT order_id, quantity FROM orders",
    "L2-filter": "SELECT * FROM orders WHERE quantity >= 3",
    "L3-join": (
        "SELECT * FROM orders "
        "JOIN customers ON orders.customer_id = customers.customer_id"
    ),
    "L4-group": (
        "SELECT customer_id, COUNT(*) AS n FROM orders GROUP BY customer_id"
    ),
    "L5-sum": (
        "SELECT product_id, SUM(quantity) AS total "
        "FROM orders GROUP BY product_id"
    ),
    "L6-orderby": "SELECT * FROM products ORDER BY price DESC",
    "L7-limit": "SELECT * FROM orders ORDER BY day LIMIT 10",
    "L8-avg": (
        "SELECT country, AVG(age) AS mean_age FROM customers GROUP BY country"
    ),
    "L9-two-joins": (
        "SELECT * FROM orders "
        "JOIN customers ON orders.customer_id = customers.customer_id "
        "JOIN products ON orders.product_id = products.product_id"
    ),
    "L10-filtered-join": (
        "SELECT * FROM orders "
        "JOIN products ON orders.product_id = products.product_id "
        "WHERE day < 180"
    ),
    "L11-minmax": (
        "SELECT category, MIN(price) AS cheapest, MAX(price) AS dearest "
        "FROM products GROUP BY category"
    ),
    "L12-distinct-ish": (
        "SELECT customer_id, product_id, COUNT(*) AS n "
        "FROM orders GROUP BY customer_id, product_id"
    ),
}


def pigmix_miniature(scale: float = 1.0) -> MiniatureReport:
    """PigMix: 12 data queries, written in SQL, on the relational engine."""
    engine = DbmsEngine()
    for name, dataset in load_retail_tables(
        num_customers=_scaled(60, scale),
        num_products=_scaled(40, scale),
        num_orders=_scaled(200, scale),
    ).items():
        engine.load_dataset(dataset, name)
    report = MiniatureReport("PigMix", notes="12 SQL data queries on the DBMS")
    for name, sql_text in PIGMIX_QUERIES.items():
        result = engine.sql(sql_text)
        report.runs[name] = {
            "rows": len(result.rows),
            "duration_seconds": result.wall_seconds,
        }
    return report


def ycsb_miniature(scale: float = 1.0) -> MiniatureReport:
    """YCSB: core workloads A/B/C against the NoSQL store."""
    report = MiniatureReport("YCSB", notes="cloud serving workloads")
    records = _kv_data(scale)
    for mix in ("A", "B", "C"):
        report.runs[f"workload-{mix}"] = YcsbWorkload().run(
            NoSqlStore(num_partitions=8, replication=2, seed=31), records,
            workload_mix=mix, operation_count=_scaled(400, scale), seed=32,
        )
    return report


def pavlo_miniature(scale: float = 1.0) -> MiniatureReport:
    """Pavlo performance benchmark: the DBMS-vs-MapReduce comparison."""
    report = MiniatureReport(
        "Performance benchmark", notes="same tasks on DBMS and Hadoop"
    )
    orders = load_retail_tables(num_orders=_scaled(300, scale))["orders"]
    workload = RelationalQueryWorkload()
    report.runs["select-join-aggregate@dbms"] = workload.run(DbmsEngine(), orders)
    report.runs["select-join-aggregate@mapreduce"] = workload.run(
        MapReduceEngine(), orders
    )
    tables = load_retail_tables(
        num_customers=_scaled(50, scale), num_products=_scaled(30, scale)
    )
    weblog = WebLogGenerator(
        tables["customers"], tables["products"], seed=41
    ).generate(_scaled(300, scale))
    counter = CountUrlLinksWorkload()
    report.runs["count-url-links@dbms"] = counter.run(DbmsEngine(), weblog)
    report.runs["count-url-links@mapreduce"] = counter.run(
        MapReduceEngine(), weblog
    )
    report.runs["grep@mapreduce"] = GrepWorkload().run(
        MapReduceEngine(), _text_data(scale, seed=42), pattern_text="river"
    )
    return report


def tpcds_miniature(scale: float = 1.0) -> MiniatureReport:
    """TPC-DS: load a star schema, run queries, apply data maintenance."""
    engine = DbmsEngine()
    schemas = retail_star_schema(
        num_customers=_scaled(80, scale), num_products=_scaled(40, scale)
    )
    import time

    started = time.perf_counter()
    for name, schema in schemas.items():
        volume = {"customers": 80, "products": 40, "orders": 400}[name]
        dataset = TableGenerator(schema, seed=51).generate(_scaled(volume, scale))
        engine.load_dataset(dataset, name)
    load_seconds = time.perf_counter() - started
    report = MiniatureReport("TPC-DS", notes="decision support on a DBMS")
    report.runs["data-loading"] = {"duration_seconds": load_seconds}
    decision_query = engine.execute(
        engine.query("orders")
        .join("products", "product_id", "product_id")
        .where(col("quantity") >= lit(2))
        .group_by("category")
        .aggregate("sum", "quantity", "volume")
        .order_by("volume", descending=True)
    )
    report.runs["reporting-query"] = {
        "rows": len(decision_query.rows),
        "duration_seconds": decision_query.wall_seconds,
    }
    maintained = engine.update(
        "orders", col("quantity") == lit(1), {"quantity": 2}
    )
    deleted = engine.delete("orders", col("day") >= lit(360))
    report.runs["data-maintenance"] = {
        "rows_updated": maintained,
        "rows_deleted": deleted,
        "duration_seconds": 0.0,
    }
    return report


def bigbench_miniature(scale: float = 1.0) -> MiniatureReport:
    """BigBench: TPC-DS tables + chained web logs/reviews + analytics."""
    report = MiniatureReport(
        "BigBench", notes="structured + semi-structured + analytics"
    )
    tables = load_retail_tables(
        num_customers=_scaled(60, scale),
        num_products=_scaled(30, scale),
        num_orders=_scaled(250, scale),
    )
    engine = DbmsEngine()
    for name, dataset in tables.items():
        engine.load_dataset(dataset, name)
    database_ops = engine.execute(
        engine.query("orders").where(col("quantity") >= lit(2))
    )
    report.runs["database-select"] = {
        "rows": len(database_ops.rows),
        "duration_seconds": database_ops.wall_seconds,
    }
    engine.create_table("scratch", ("id", "value"))
    engine.drop_table("scratch")
    report.runs["create-drop-table"] = {"duration_seconds": 0.0}
    weblog = WebLogGenerator(
        tables["customers"], tables["products"], seed=61
    ).generate(_scaled(200, scale))
    report.runs["weblog-generation"] = {
        "records_out": weblog.num_records,
        "duration_seconds": 0.0,
    }
    report.runs["kmeans"] = KMeansWorkload().run(
        MapReduceEngine(), _mixture_data(scale, seed=62),
        num_clusters=3, max_iterations=6,
    )
    report.runs["classification"] = NaiveBayesWorkload().run(
        MapReduceEngine(), _lda_text(scale, seed=63)
    )
    return report


def linkbench_miniature(scale: float = 1.0) -> MiniatureReport:
    """LinkBench: social-graph node/link operations against a store."""
    store = NoSqlStore(num_partitions=8, replication=1, seed=71)
    graph = _graph_data(scale, seed=72)
    import numpy as np

    rng = np.random.default_rng(73)
    for index, (src, dst) in enumerate(graph.records):
        store.insert(f"node:{src:08d}", {"degree_hint": 0})
        store.insert(f"link:{src:08d}:{dst:08d}", {"position": index})
    latencies: dict[str, list[float]] = {
        "get-node": [], "insert-link": [], "update-node": [],
        "delete-link": [], "range-query": [], "count-query": [],
    }
    vertices = sorted({v for edge in graph.records for v in edge})
    for _ in range(_scaled(150, scale)):
        vertex = vertices[int(rng.integers(len(vertices)))]
        latencies["get-node"].append(
            store.read(f"node:{vertex:08d}").latency_seconds
        )
        other = vertices[int(rng.integers(len(vertices)))]
        latencies["insert-link"].append(
            store.insert(f"link:{vertex:08d}:{other:08d}", {"position": -1}).latency_seconds
        )
        latencies["update-node"].append(
            store.update(f"node:{vertex:08d}", {"degree_hint": 1}).latency_seconds
        )
        latencies["delete-link"].append(
            store.delete(f"link:{vertex:08d}:{other:08d}").latency_seconds
        )
        scan = store.scan(f"link:{vertex:08d}:", 20)
        latencies["range-query"].append(scan.latency_seconds)
        latencies["count-query"].append(scan.latency_seconds)
    report = MiniatureReport("LinkBench", notes="social graph serving store")
    for name, samples in latencies.items():
        report.runs[name] = {
            "operations": len(samples),
            "mean_latency_seconds": sum(samples) / len(samples),
            "duration_seconds": sum(samples),
        }
    return report


def cloudsuite_miniature(scale: float = 1.0) -> MiniatureReport:
    """CloudSuite: serving (YCSB) plus analytics (classification, WC)."""
    report = MiniatureReport("CloudSuite", notes="cloud service architecture")
    inner = ycsb_miniature(scale)
    for name, run in inner.runs.items():
        report.runs[f"ycsb-{name}"] = run
    report.runs["text-classification"] = NaiveBayesWorkload().run(
        MapReduceEngine(), _lda_text(scale, seed=81)
    )
    report.runs["wordcount"] = WordCountWorkload().run(
        MapReduceEngine(), _text_data(scale, seed=82)
    )
    return report


def bigdatabench_miniature(scale: float = 1.0) -> MiniatureReport:
    """BigDataBench: one representative per scenario and domain."""
    report = MiniatureReport(
        "BigDataBench", notes="micro + OLTP + relational + 3 domains"
    )
    text = _text_data(scale, seed=91)
    report.runs["micro-sort"] = SortWorkload().run(MapReduceEngine(), text)
    report.runs["micro-grep"] = GrepWorkload().run(
        MapReduceEngine(), text, pattern_text="stone"
    )
    report.runs["micro-wordcount"] = WordCountWorkload().run(
        MapReduceEngine(), text
    )
    from repro.engines.dfs import DistributedFileSystem
    from repro.workloads import CfsWorkload

    report.runs["micro-cfs"] = CfsWorkload().run(
        DistributedFileSystem(), text, files=4
    )
    report.runs["cloud-oltp"] = YcsbWorkload().run(
        NoSqlStore(seed=92), _kv_data(scale, seed=93),
        workload_mix="B", operation_count=_scaled(300, scale),
    )
    orders = load_retail_tables(num_orders=_scaled(250, scale))["orders"]
    report.runs["relational-query"] = RelationalQueryWorkload().run(
        DbmsEngine(), orders
    )
    lda = _lda_text(scale, seed=94)
    report.runs["search-index"] = InvertedIndexWorkload().run(
        MapReduceEngine(), lda
    )
    report.runs["search-pagerank"] = PageRankWorkload().run(
        MapReduceEngine(), _graph_data(scale, seed=95), max_iterations=10
    )
    report.runs["social-kmeans"] = KMeansWorkload().run(
        MapReduceEngine(), _mixture_data(scale, seed=96),
        num_clusters=4, max_iterations=6,
    )
    report.runs["social-cc"] = ConnectedComponentsWorkload().run(
        MapReduceEngine(), _graph_data(scale, seed=97), max_iterations=20
    )
    report.runs["ecommerce-cf"] = CollaborativeFilteringWorkload().run(
        MapReduceEngine(), orders
    )
    report.runs["ecommerce-bayes"] = NaiveBayesWorkload().run(
        MapReduceEngine(), lda
    )
    # Variety fidelity: BigDataBench's Table 1 row lists resumes among
    # its data sources.
    from repro.datagen.resume import ResumeGenerator, cluster_cohesion

    resumes = ResumeGenerator(seed=98).generate(_scaled(100, scale))
    report.runs["data-resumes"] = {
        "records_out": resumes.num_records,
        "skill_cluster_cohesion": cluster_cohesion(resumes.records),
        "duration_seconds": 0.0,
    }
    return report


#: suite name → miniature runner, in Table 1/2 order.
MINIATURES = {
    "HiBench": hibench_miniature,
    "GridMix": gridmix_miniature,
    "PigMix": pigmix_miniature,
    "YCSB": ycsb_miniature,
    "Performance benchmark": pavlo_miniature,
    "TPC-DS": tpcds_miniature,
    "BigBench": bigbench_miniature,
    "LinkBench": linkbench_miniature,
    "CloudSuite": cloudsuite_miniature,
    "BigDataBench": bigdatabench_miniature,
}


def run_miniature(name: str, scale: float = 1.0) -> MiniatureReport:
    """Run one suite miniature by name, its volumes scaled by ``scale``."""
    runner = MINIATURES.get(name)
    if runner is None:
        raise ExecutionError(
            f"unknown miniature {name!r}; available: {sorted(MINIATURES)}"
        )
    if not 0 < scale < math.inf:
        raise ExecutionError(f"scale must be finite and positive, got {scale}")
    return runner(scale)
