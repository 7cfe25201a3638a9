"""Relational-query workloads, runnable on a DBMS *and* on MapReduce.

This is the Pavlo et al. comparison the paper surveys ([15]: "data
loading, select, aggregate, join, count URL links" across "DBMS and
Hadoop"): the same abstract select→join→aggregate test implemented on
both system types, which is exactly what the paper's functional view
exists to allow.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ExecutionError
from repro.core.operations import operations
from repro.core.patterns import MultiOperationPattern
from repro.datagen.base import DataSet, DataType
from repro.datagen.corpus import PRODUCT_CATEGORIES
from repro.engines.base import CostCounters
from repro.engines.dbms import DbmsEngine, col, lit
from repro.engines.mapreduce import JobConf, MapReduceEngine, MapReduceJob
from repro.engines.nosql import NoSqlStore
from repro.workloads.base import (
    ApplicationDomain,
    Workload,
    WorkloadCategory,
    WorkloadResult,
)


def _order_columns(dataset: DataSet) -> tuple[int, int, tuple[str, ...]]:
    """(product position, quantity position, schema) of an orders table."""
    schema = dataset.metadata.get("schema")
    if schema is None:
        raise ExecutionError(f"data set {dataset.name!r} has no schema metadata")
    try:
        product_position = list(schema).index("product_id")
        quantity_position = list(schema).index("quantity")
    except ValueError as exc:
        raise ExecutionError(
            f"orders table must have product_id and quantity columns, "
            f"got {schema}"
        ) from exc
    return product_position, quantity_position, tuple(schema)


def derive_products(dataset: DataSet) -> list[tuple[int, str, float]]:
    """A deterministic products dimension from the order foreign keys.

    Category and price are functions of the product id, so DBMS and
    MapReduce runs join against identical dimension data.
    """
    product_position, _, _ = _order_columns(dataset)
    product_ids = sorted({row[product_position] for row in dataset.records})
    return [
        (
            product_id,
            PRODUCT_CATEGORIES[product_id % len(PRODUCT_CATEGORIES)],
            round(10.0 + (product_id * 7919) % 90, 2),
        )
        for product_id in product_ids
    ]


class RelationalQueryWorkload(Workload):
    """select(quantity ≥ q) → join(products) → aggregate sum per category.

    ``run_dbms`` plans it through the relational engine;
    ``run_mapreduce`` implements the classic repartition join plus an
    aggregation job; ``run_nosql`` runs it as a KV-store client with the
    dimension joined client-side.  Outputs are identical up to row
    order, which the integration tests assert.
    """

    name = "relational-query"
    domain = ApplicationDomain.BASIC_DATABASE
    category = WorkloadCategory.REALTIME_ANALYTICS
    data_type = DataType.TABLE
    abstract_operations = tuple(operations("select", "join", "aggregate"))
    pattern = MultiOperationPattern(operations("select", "join", "aggregate"))

    def run_dbms(
        self,
        engine: DbmsEngine,
        dataset: DataSet,
        min_quantity: int = 2,
        **params: Any,
    ) -> WorkloadResult:
        _, _, schema = _order_columns(dataset)
        if not engine.catalog.has_table("orders"):
            engine.create_table("orders", schema)
            engine.insert("orders", dataset.records)
            engine.create_table("products", ("product_id", "category", "price"))
            engine.insert("products", derive_products(dataset))
            engine.create_index("products", "product_id")
        result = engine.execute(
            engine.query("orders")
            .where(col("quantity") >= lit(min_quantity))
            .join("products", "product_id", "product_id")
            .group_by("category")
            .aggregate("sum", "quantity", "total_quantity")
            .order_by("category")
        )
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=result.rows,
            records_in=dataset.num_records,
            records_out=len(result.rows),
            duration_seconds=result.wall_seconds,
            cost=result.cost,
            extra={"plan": result.plan},
        )

    def run_mapreduce(
        self,
        engine: MapReduceEngine,
        dataset: DataSet,
        min_quantity: int = 2,
        **params: Any,
    ) -> WorkloadResult:
        product_position, quantity_position, _ = _order_columns(dataset)
        products = derive_products(dataset)

        # Job 1: repartition join, with the selection pushed into the map.
        def join_map(row_id: int, record: tuple):
            tag, row = record
            if tag == "O":
                if row[quantity_position] >= min_quantity:
                    yield row[product_position], ("O", row[quantity_position])
            else:
                yield row[0], ("P", row[1])

        def join_reduce(product_id: Any, tagged: list[tuple]):
            quantities = [value for tag, value in tagged if tag == "O"]
            categories = [value for tag, value in tagged if tag == "P"]
            for category in categories:
                for quantity in quantities:
                    yield category, quantity

        tagged_input = [(i, ("O", row)) for i, row in enumerate(dataset.records)]
        tagged_input += [
            (len(tagged_input) + i, ("P", row)) for i, row in enumerate(products)
        ]
        join_job = MapReduceJob(
            "relational-join", join_map, join_reduce, conf=JobConf(sort_keys=False)
        )
        joined = engine.run(join_job, tagged_input)

        # Job 2: aggregate sum(quantity) per category.
        def agg_map(category: str, quantity: Any):
            yield category, quantity

        def agg_reduce(category: str, quantities: list):
            yield category, float(sum(quantities))

        agg_job = MapReduceJob(
            "relational-aggregate", agg_map, agg_reduce, combiner=agg_reduce
        )
        aggregated = engine.run(agg_job, joined.output)

        total_cost = joined.cost.merge(aggregated.cost)
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=sorted(aggregated.output),
            records_in=dataset.num_records,
            records_out=len(aggregated.output),
            duration_seconds=joined.wall_seconds + aggregated.wall_seconds,
            cost=total_cost,
            simulated_seconds=joined.simulated_seconds
            + aggregated.simulated_seconds,
        )

    def run_nosql(
        self,
        engine: "NoSqlStore",
        dataset: DataSet,
        min_quantity: int = 2,
        scan_batch: int = 256,
        **params: Any,
    ) -> WorkloadResult:
        """The same query as a KV-store client would run it.

        NoSQL stores have no join operator, so the dimension table stays
        client-side (the common denormalized-read pattern): orders are
        loaded as rows, scanned back in key order page by page, filtered
        and joined against the derived product dimension in the client,
        then aggregated.  Output matches ``run_dbms``/``run_mapreduce``
        row for row.
        """
        product_position, quantity_position, _ = _order_columns(dataset)
        category_of = {
            product_id: category
            for product_id, category, _ in derive_products(dataset)
        }

        latencies: list[float] = []
        if len(engine) == 0:
            latencies = engine.bulk_load(
                (
                    f"order:{index:010d}",
                    {
                        "product_id": row[product_position],
                        "quantity": row[quantity_position],
                    },
                )
                for index, row in enumerate(dataset.records)
            )

        totals: dict[str, float] = {}
        start_key = ""
        while True:
            op = engine.scan(start_key, scan_batch)
            latencies.append(op.latency_seconds)
            for _, fields in op.rows:
                if fields["quantity"] >= min_quantity:
                    category = category_of[fields["product_id"]]
                    totals[category] = (
                        totals.get(category, 0.0) + fields["quantity"]
                    )
            if len(op.rows) < scan_batch:
                break
            start_key = op.rows[-1][0] + "\x00"

        output = sorted(
            (category, float(total)) for category, total in totals.items()
        )
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=output,
            records_in=dataset.num_records,
            records_out=len(output),
            duration_seconds=0.0,  # filled by the dispatcher
            cost=CostCounters().merge(engine.counters),
            latencies=latencies,
            simulated_seconds=sum(latencies),
            extra={"operations": len(latencies)},
        )


class CountUrlLinksWorkload(Workload):
    """Count requests per URL path (Pavlo's "count URL links" analogue)."""

    name = "count-url-links"
    domain = ApplicationDomain.BASIC_DATABASE
    category = WorkloadCategory.REALTIME_ANALYTICS
    data_type = DataType.WEB_LOG
    abstract_operations = tuple(operations("count", "aggregate"))
    pattern = MultiOperationPattern(operations("count", "aggregate"))

    def run_dbms(
        self, engine: DbmsEngine, dataset: DataSet, **params: Any
    ) -> WorkloadResult:
        if not engine.catalog.has_table("weblog"):
            engine.create_table("weblog", ("customer_id", "path", "status"))
            engine.insert(
                "weblog",
                [
                    (record["customer_id"], record["path"], record["status"])
                    for record in dataset.records
                ],
            )
        result = engine.execute(
            engine.query("weblog")
            .group_by("path")
            .aggregate("count", None, "hits")
            .order_by("path")
        )
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=result.rows,
            records_in=dataset.num_records,
            records_out=len(result.rows),
            duration_seconds=result.wall_seconds,
            cost=result.cost,
        )

    def run_mapreduce(
        self, engine: MapReduceEngine, dataset: DataSet, **params: Any
    ) -> WorkloadResult:
        def path_map(record_id: int, record: dict):
            yield record["path"], 1

        def count_reduce(path: str, counts: list[int]):
            yield path, sum(counts)

        job = MapReduceJob(
            "count-url-links", path_map, count_reduce, combiner=count_reduce
        )
        result = engine.run(job, list(enumerate(dataset.records)))
        return WorkloadResult(
            workload=self.name,
            engine=engine.name,
            output=sorted(result.output),
            records_in=dataset.num_records,
            records_out=len(result.output),
            duration_seconds=result.wall_seconds,
            cost=result.cost,
            simulated_seconds=result.simulated_seconds,
        )
