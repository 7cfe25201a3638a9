"""Logical queries and the rule-based planner.

A :class:`Query` is the logical description (what BigBench/TPC-DS style
relational workloads construct); the planner turns it into a physical
operator tree, applying:

* **predicate pushdown** — single-table conjuncts move below the joins;
* **access-path selection** — an equality conjunct on an indexed column
  becomes an IndexScan;
* **join-algorithm selection** — hash join for large inputs, nested-loop
  for tiny inners, overridable for the planner ablation benchmark;
* **layout selection** — ``layout="columnar"`` plans the batch-at-a-time
  vectorized operators (:mod:`repro.engines.dbms.vector_plans`) wherever
  they exist, falling back to the row twins mid-plan for row-only
  algorithms (merge and nested-loop joins) via a ``RowAdapter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.core.errors import EngineError
from repro.engines.base import CostCounters
from repro.engines.dbms.catalog import Catalog
from repro.engines.dbms.expressions import (
    Comparison,
    Expression,
    col,
    conjoin,
    split_conjuncts,
)
from repro.engines.dbms.plans import (
    Aggregate,
    Filter,
    HashAggregate,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    SeqScan,
    Sort,
)
from repro.engines.dbms.storage import HeapTable
from repro.engines.dbms.vector_plans import (
    BatchAggregate,
    BatchFilter,
    BatchHashJoin,
    BatchLimit,
    BatchProject,
    BatchSort,
    ColumnarIndexScan,
    ColumnarScan,
    RowAdapter,
    VectorOperator,
)

#: The execution layouts the planner can produce.
LAYOUTS = ("row", "columnar")


@dataclass(frozen=True)
class JoinSpec:
    """One equi-join step: join ``table`` on left_column = right_column."""

    table: str
    left_column: str
    right_column: str


@dataclass
class Query:
    """A logical query over the catalog."""

    table: str
    joins: list[JoinSpec] = field(default_factory=list)
    predicate: Expression | None = None
    group_by: list[str] = field(default_factory=list)
    aggregates: list[Aggregate] = field(default_factory=list)
    projection: list[tuple[str, Expression]] = field(default_factory=list)
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: int | None = None


@dataclass
class PlannerConfig:
    """Planner knobs (the ablation benchmark sweeps these)."""

    #: hash | nested_loop | merge | auto
    join_algorithm: str = "auto"
    #: Use index scans when an equality conjunct matches an index.
    use_indexes: bool = True
    #: Push single-table conjuncts below joins.
    predicate_pushdown: bool = True
    #: Inner inputs up to this many rows use nested-loop under "auto".
    nested_loop_threshold: int = 64
    #: row | columnar — the default execution layout for planned queries.
    layout: str = "row"
    #: Rows per column batch in the columnar layout.
    batch_size: int = 1024

    def __post_init__(self) -> None:
        valid = ("hash", "nested_loop", "merge", "auto")
        if self.join_algorithm not in valid:
            raise EngineError(
                f"join_algorithm must be one of {valid}, got "
                f"{self.join_algorithm!r}"
            )
        if self.layout not in LAYOUTS:
            raise EngineError(
                f"layout must be one of {LAYOUTS}, got {self.layout!r}"
            )
        if self.batch_size <= 0:
            raise EngineError(
                f"batch_size must be positive, got {self.batch_size}"
            )


def _check_columns(columns: list[str], schema: tuple[str, ...]) -> None:
    """Refuse, at plan time, a clause column its input does not have."""
    known = set(schema)
    for column in columns:
        if column not in known:
            raise EngineError(
                f"unknown column {column!r}; available: {sorted(known)}"
            )


class Planner:
    """Turns logical queries into physical operator trees."""

    def __init__(self, catalog: Catalog, config: PlannerConfig | None = None) -> None:
        self.catalog = catalog
        self.config = config or PlannerConfig()

    def plan(
        self,
        query: Query,
        cost: CostCounters,
        layout: str | None = None,
    ) -> PhysicalOperator | VectorOperator:
        """Build the physical plan for ``query``, charging work to ``cost``.

        ``layout`` overrides the configured default for this one query.
        """
        layout = layout if layout is not None else self.config.layout
        if layout not in LAYOUTS:
            raise EngineError(
                f"layout must be one of {LAYOUTS}, got {layout!r}"
            )
        columnar = layout == "columnar"
        conjuncts = split_conjuncts(query.predicate)
        operator, remaining = self._plan_scan(
            query.table, conjuncts, cost, columnar
        )

        for join in query.joins:
            inner, remaining = self._plan_scan(
                join.table, remaining, cost, columnar
            )
            operator = self._plan_join(operator, inner, join, cost)

        leftover = [
            conjunct
            for conjunct in remaining
            if conjunct.columns() <= set(operator.schema)
        ]
        unplaceable = [c for c in remaining if c not in leftover]
        if unplaceable:
            raise EngineError(
                f"predicate references unknown columns: "
                f"{sorted(set().union(*(c.columns() for c in unplaceable)))}"
            )
        vectorized = isinstance(operator, VectorOperator)
        residual = conjoin(leftover)
        if residual is not None:
            operator = (
                BatchFilter(operator, residual, cost)
                if vectorized
                else Filter(operator, residual, cost)
            )

        if query.group_by or query.aggregates:
            _check_columns(
                [
                    *query.group_by,
                    *(a.column for a in query.aggregates if a.column is not None),
                ],
                operator.schema,
            )
            operator = (
                BatchAggregate(operator, query.group_by, query.aggregates, cost)
                if vectorized
                else HashAggregate(
                    operator, query.group_by, query.aggregates, cost
                )
            )
        if query.projection:
            operator = (
                BatchProject(operator, query.projection, cost)
                if vectorized
                else Project(operator, query.projection, cost)
            )
        if query.order_by:
            _check_columns([column for column, _ in query.order_by], operator.schema)
            operator = (
                BatchSort(operator, query.order_by, cost)
                if vectorized
                else Sort(operator, query.order_by, cost)
            )
        if query.limit is not None:
            operator = (
                BatchLimit(operator, query.limit, cost)
                if vectorized
                else Limit(operator, query.limit, cost)
            )
        return operator

    # ------------------------------------------------------------------

    def _plan_scan(
        self,
        table_name: str,
        conjuncts: list[Expression],
        cost: CostCounters,
        columnar: bool = False,
    ) -> tuple[PhysicalOperator | VectorOperator, list[Expression]]:
        """Choose the access path for one table and push its conjuncts."""
        table = self.catalog.table(table_name)
        table_columns = set(table.schema)
        if self.config.predicate_pushdown:
            local = [c for c in conjuncts if c.columns() <= table_columns]
            remaining = [c for c in conjuncts if c not in local]
        else:
            local, remaining = [], list(conjuncts)

        operator: PhysicalOperator | VectorOperator | None = None
        conjunct = self._index_conjunct(table, local)
        if conjunct is not None:
            scan_type = ColumnarIndexScan if columnar else IndexScan
            operator = scan_type(
                table, conjunct.left.name, cost, value=conjunct.right.value
            )
            local = [c for c in local if c is not conjunct]
        if operator is None:
            if columnar:
                # Push the table-local predicate into the scan itself:
                # the fused scan only materializes untouched columns
                # for surviving positions (see ColumnarScan).
                operator = ColumnarScan(
                    table,
                    cost,
                    batch_size=self.config.batch_size,
                    predicate=conjoin(local),
                )
                local = []
            else:
                operator = SeqScan(table, cost)
        residual = conjoin(local)
        if residual is not None:
            operator = (
                BatchFilter(operator, residual, cost)
                if columnar
                else Filter(operator, residual, cost)
            )
        return operator, remaining

    def _index_conjunct(
        self, table: HeapTable, conjuncts: list[Expression]
    ) -> Comparison | None:
        """The conjunct an index on ``table`` can serve, if any.

        The access-path rule, for reads and mutations alike: with
        ``use_indexes`` on, the first ``col = literal`` conjunct over an
        indexed column.
        """
        if self.config.use_indexes:
            for conjunct in conjuncts:
                if (
                    isinstance(conjunct, Comparison)
                    and conjunct.is_equality_on_column
                    and table.has_index(conjunct.left.name)
                ):
                    return conjunct
        return None

    def matching_row_ids(
        self, table: HeapTable, predicate: Expression
    ) -> list[int]:
        """Ascending ids of the live rows ``predicate`` accepts.

        What ``UPDATE`` and ``DELETE`` act on.  Candidates come from an
        index when :meth:`_index_conjunct` finds one, else from a full
        scan; the whole predicate is evaluated on every candidate either
        way, so the access path cannot change the answer.
        """
        layout = table.layout
        conjunct = self._index_conjunct(table, split_conjuncts(predicate))
        if conjunct is None:
            candidates = table.items()
        else:
            index = table.indexes[conjunct.left.name]
            candidates = (
                (row_id, table.fetch(row_id))
                for row_id in index.lookup(conjunct.right.value)
            )
        return [
            row_id
            for row_id, row in candidates
            if predicate.evaluate(row, layout)
        ]

    def _plan_join(
        self,
        outer: PhysicalOperator | VectorOperator,
        inner: PhysicalOperator | VectorOperator,
        join: JoinSpec,
        cost: CostCounters,
    ) -> PhysicalOperator | VectorOperator:
        """Pick the join algorithm per configuration and statistics."""
        if join.left_column not in outer.schema:
            raise EngineError(
                f"join column {join.left_column!r} not in left schema "
                f"{outer.schema}"
            )
        if join.right_column not in inner.schema:
            raise EngineError(
                f"join column {join.right_column!r} not in right schema "
                f"{inner.schema}"
            )
        algorithm = self.config.join_algorithm
        if algorithm == "auto":
            if isinstance(outer, VectorOperator) and isinstance(
                inner, VectorOperator
            ):
                # In the columnar layout the batch hash join IS the
                # vectorized choice; its output order matches nested-loop
                # exactly, so the row oracle still holds.
                algorithm = "hash"
            else:
                inner_rows = self._estimate_rows(inner)
                algorithm = (
                    "nested_loop"
                    if inner_rows <= self.config.nested_loop_threshold
                    else "hash"
                )
        if algorithm == "hash" and (
            isinstance(outer, VectorOperator)
            and isinstance(inner, VectorOperator)
        ):
            return BatchHashJoin(
                outer, inner, join.left_column, join.right_column, cost
            )
        # Merge and nested-loop joins (and mixed-layout inputs) run the
        # row algorithms; vector inputs are adapted at the boundary.
        outer = self._as_row(outer, cost)
        inner = self._as_row(inner, cost)
        if algorithm == "hash":
            return HashJoin(outer, inner, join.left_column, join.right_column, cost)
        if algorithm == "merge":
            return MergeJoin(outer, inner, join.left_column, join.right_column, cost)
        return NestedLoopJoin(outer, inner, join.left_column, join.right_column, cost)

    @staticmethod
    def _as_row(
        operator: PhysicalOperator | VectorOperator, cost: CostCounters
    ) -> PhysicalOperator:
        if isinstance(operator, VectorOperator):
            return RowAdapter(operator, cost)
        return operator

    def _estimate_rows(
        self, operator: PhysicalOperator | VectorOperator
    ) -> int:
        """Cardinality estimate from catalog statistics (scans only)."""
        if isinstance(operator, (SeqScan, ColumnarScan)):
            return len(operator.table)
        if isinstance(operator, (IndexScan, ColumnarIndexScan)):
            # Equality on an index: assume high selectivity.
            return max(1, len(operator.table) // 100)
        if isinstance(operator, (Filter, BatchFilter)):
            return max(1, self._estimate_rows(operator.child) // 3)
        if isinstance(operator, RowAdapter):
            return self._estimate_rows(operator.child)
        return 1 << 30  # unknown: assume large

    def query(self, table: str) -> "QueryBuilder":
        """Start a fluent query against this planner's catalog."""
        return QueryBuilder(table)


class QueryBuilder:
    """Fluent construction of :class:`Query` objects.

    Example::

        query = (QueryBuilder("orders")
                 .join("products", "product_id", "product_id")
                 .where(col("quantity") >= lit(2))
                 .group_by("category")
                 .aggregate("sum", "quantity", "total")
                 .build())
    """

    def __init__(self, table: str) -> None:
        self._query = Query(table=table)

    def join(
        self, table: str, left_column: str, right_column: str
    ) -> "QueryBuilder":
        self._query.joins.append(JoinSpec(table, left_column, right_column))
        return self

    def where(self, predicate: Expression) -> "QueryBuilder":
        if self._query.predicate is None:
            self._query.predicate = predicate
        else:
            self._query.predicate = self._query.predicate & predicate
        return self

    def group_by(self, *columns: str) -> "QueryBuilder":
        self._query.group_by.extend(columns)
        return self

    def aggregate(
        self, function: str, column: str | None = None, alias: str | None = None
    ) -> "QueryBuilder":
        name = alias or (f"{function}_{column}" if column else function)
        self._query.aggregates.append(Aggregate(function, column, name))
        return self

    def select(self, *columns: str | tuple[str, Expression]) -> "QueryBuilder":
        for entry in columns:
            if isinstance(entry, str):
                self._query.projection.append((entry, col(entry)))
            else:
                self._query.projection.append(entry)
        return self

    def order_by(self, column: str, descending: bool = False) -> "QueryBuilder":
        self._query.order_by.append((column, descending))
        return self

    def limit(self, count: int) -> "QueryBuilder":
        self._query.limit = count
        return self

    def build(self) -> Query:
        return self._query
