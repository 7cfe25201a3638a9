"""The relational engine's public API.

:class:`DbmsEngine` is the substitute for the parallel DBMSs the paper's
surveyed benchmarks target (DBMS-X, Vertica, Teradata Aster): DDL, DML,
and logical queries planned through the rule-based planner, all reporting
uniform cost counters.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import EngineError
from repro.datagen.base import DataSet, DataType
from repro.engines.base import CostCounters, Engine
from repro.engines.dbms.catalog import Catalog
from repro.engines.dbms.expressions import Expression
from repro.engines.dbms.planner import Planner, PlannerConfig, Query, QueryBuilder
from repro.engines.dbms.storage import HeapTable
from repro.engines.dbms.vector_plans import VectorOperator
from repro.observability import trace_span


@dataclass
class QueryResult:
    """Rows plus evidence from one query execution."""

    rows: list[tuple]
    schema: tuple[str, ...]
    plan: dict[str, Any]
    wall_seconds: float
    cost: CostCounters = field(default_factory=CostCounters)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        """All values of one output column."""
        try:
            position = self.schema.index(name)
        except ValueError:
            raise EngineError(
                f"result has no column {name!r}; columns: {self.schema}"
            ) from None
        return [row[position] for row in self.rows]


class DbmsEngine(Engine):
    """An in-memory relational database with a rule-based planner."""

    name = "dbms"
    software_stack = "relational DBMS (parallel-DBMS substitute)"

    def __init__(self, planner_config: PlannerConfig | None = None) -> None:
        super().__init__()
        self.catalog = Catalog()
        self.planner = Planner(self.catalog, planner_config)


    @property
    def execution_layout(self) -> str:
        """The configured default layout (row | columnar)."""
        return self.planner.config.layout

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Sequence[str]) -> HeapTable:
        return self.catalog.create_table(name, tuple(schema))

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def create_index(self, table: str, column: str) -> None:
        self.catalog.table(table).create_index(column)

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk load rows; returns the number inserted."""
        count = self.catalog.table(table).insert_many(rows)
        self.counters.records_written += count
        return count

    def load_dataset(self, dataset: Any, table: str | None = None) -> str:
        """Create a table from a TABLE data set and load its rows.

        Accepts a materialized :class:`DataSet` or any dataset source;
        a streaming source is ingested batch by batch, so the engine
        never sees the whole record list at once.
        """
        if dataset.data_type is not DataType.TABLE:
            raise EngineError(
                f"can only load TABLE data sets, got {dataset.data_type.label}"
            )
        schema = dataset.metadata.get("schema")
        if schema is None:
            raise EngineError(f"data set {dataset.name!r} has no schema metadata")
        name = table or dataset.name.replace("-", "_")
        self.create_table(name, tuple(schema))
        if isinstance(dataset, DataSet):
            self.insert(name, dataset.records)
        else:
            for batch in dataset.batches():
                self.insert(name, batch.records)
        return name

    def update(
        self, table: str, predicate: Expression, updates: dict[str, Any]
    ) -> int:
        """Update all rows matching ``predicate``; returns the count."""
        heap = self.catalog.table(table)
        matching = self.planner.matching_row_ids(heap, predicate)
        for row_id in matching:
            heap.update_row(row_id, updates)
        self.counters.records_written += len(matching)
        return len(matching)

    def delete(self, table: str, predicate: Expression) -> int:
        """Delete all rows matching ``predicate``; returns the count."""
        heap = self.catalog.table(table)
        matching = self.planner.matching_row_ids(heap, predicate)
        for row_id in matching:
            heap.delete_row(row_id)
        self.counters.records_written += len(matching)
        return len(matching)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(self, table: str) -> QueryBuilder:
        """Start a fluent query."""
        return QueryBuilder(table)

    def execute(
        self, query: Query | QueryBuilder, layout: str | None = None
    ) -> QueryResult:
        """Plan and run a logical query.

        ``layout`` overrides the engine's configured execution layout
        (``row`` | ``columnar``) for this one query.
        """
        if isinstance(query, QueryBuilder):
            query = query.build()
        cost = CostCounters()
        started = time.perf_counter()
        plan = self.planner.plan(query, cost, layout=layout)
        effective = _plan_layout(plan)
        with trace_span("query", engine="dbms", layout=effective) as span:
            rows = list(plan.rows())
            if span:
                span.incr("batches", cost.batches)
                span.incr("records_read", cost.records_read)
        wall_seconds = time.perf_counter() - started
        self.counters.merge(cost)
        return QueryResult(
            rows=rows,
            schema=plan.schema,
            plan={"layout": effective, **plan.explain()},
            wall_seconds=wall_seconds,
            cost=cost,
        )

    def sql(self, text: str, layout: str | None = None) -> QueryResult:
        """Parse and execute one SELECT statement.

        The SQL front-end produces the same logical :class:`Query` the
        fluent builder does, so it shares the planner and operators.
        """
        from repro.engines.dbms.sql import parse_sql

        return self.execute(parse_sql(text), layout=layout)

    def explain(
        self, query: Query | QueryBuilder, layout: str | None = None
    ) -> dict[str, Any]:
        """The physical plan without executing it (layout included)."""
        if isinstance(query, QueryBuilder):
            query = query.build()
        plan = self.planner.plan(query, CostCounters(), layout=layout)
        return {"layout": _plan_layout(plan), **plan.explain()}


def _plan_layout(plan: Any) -> str:
    """The layout a plan actually executes with.

    A query planned ``columnar`` whose root fell back to row operators
    (e.g. a merge join) honestly reports ``row`` — ``explain()`` and the
    trace must describe the path that ran, not the one requested.
    """
    return "columnar" if isinstance(plan, VectorOperator) else "row"
