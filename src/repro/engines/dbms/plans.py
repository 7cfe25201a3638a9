"""Physical query operators (iterator model).

Each operator exposes ``schema`` (output column names), ``rows()`` (a
generator of output tuples), and ``explain()`` (a nested plan description
used by the planner ablation benchmarks).  Operators charge their work to
a shared :class:`~repro.engines.base.CostCounters` so architecture
metrics can be derived from any query.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.errors import EngineError
from repro.engines.base import CostCounters
from repro.engines.dbms.expressions import Expression
from repro.engines.dbms.storage import HeapTable

Row = tuple


class PhysicalOperator(ABC):
    """Base class of physical operators."""

    def __init__(self, cost: CostCounters) -> None:
        self.cost = cost

    @property
    @abstractmethod
    def schema(self) -> tuple[str, ...]:
        """Output column names."""

    @abstractmethod
    def rows(self) -> Iterator[Row]:
        """Yield output rows."""

    @abstractmethod
    def explain(self) -> dict[str, Any]:
        """A nested description of this plan subtree."""

    @property
    def layout(self) -> dict[str, int]:
        return {column: index for index, column in enumerate(self.schema)}


class SeqScan(PhysicalOperator):
    """Full scan of a heap table."""

    def __init__(self, table: HeapTable, cost: CostCounters) -> None:
        super().__init__(cost)
        self.table = table

    @property
    def schema(self) -> tuple[str, ...]:
        return self.table.schema

    def rows(self) -> Iterator[Row]:
        for row in self.table.scan():
            self.cost.records_read += 1
            yield row

    def explain(self) -> dict[str, Any]:
        return {"op": "SeqScan", "table": self.table.name, "rows": len(self.table)}


#: "No point value": every Python value, ``None`` included, is a legal
#: thing to look up, so the absence of one needs an object of its own.
NO_VALUE: Any = object()


class IndexScan(PhysicalOperator):
    """Point or range lookup through a secondary index.

    A ``value`` makes it a point lookup (``value=None`` looks up NULLs);
    without one it is a range scan over ``low``..``high``, either open.
    """

    def __init__(
        self,
        table: HeapTable,
        column: str,
        cost: CostCounters,
        value: Any = NO_VALUE,
        low: Any = None,
        high: Any = None,
    ) -> None:
        super().__init__(cost)
        if not table.has_index(column):
            raise EngineError(
                f"table {table.name!r} has no index on {column!r}"
            )
        self.table = table
        self.column = column
        self.value = value
        self.low = low
        self.high = high

    @property
    def schema(self) -> tuple[str, ...]:
        return self.table.schema

    def rows(self) -> Iterator[Row]:
        index = self.table.indexes[self.column]
        if self.value is not NO_VALUE:
            row_ids = index.lookup(self.value)
        else:
            row_ids = index.range_scan(self.low, self.high)
        for row_id in row_ids:
            self.cost.records_read += 1
            yield self.table.fetch(row_id)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "IndexScan",
            "table": self.table.name,
            "column": self.column,
            "point": self.value is not NO_VALUE,
        }


class Filter(PhysicalOperator):
    """Row filter by a predicate expression."""

    def __init__(
        self, child: PhysicalOperator, predicate: Expression, cost: CostCounters
    ) -> None:
        super().__init__(cost)
        self.child = child
        self.predicate = predicate

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def rows(self) -> Iterator[Row]:
        layout = self.child.layout
        for row in self.child.rows():
            self.cost.compute_ops += 1
            if self.predicate.evaluate(row, layout):
                yield row

    def explain(self) -> dict[str, Any]:
        return {
            "op": "Filter",
            "predicate": repr(self.predicate),
            "child": self.child.explain(),
        }


class Project(PhysicalOperator):
    """Column projection (and computed expressions)."""

    def __init__(
        self,
        child: PhysicalOperator,
        columns: list[tuple[str, Expression]],
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        if not columns:
            raise EngineError("projection needs at least one output column")
        self.child = child
        self.columns = columns

    @property
    def schema(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def rows(self) -> Iterator[Row]:
        layout = self.child.layout
        for row in self.child.rows():
            self.cost.compute_ops += 1
            yield tuple(
                expression.evaluate(row, layout) for _, expression in self.columns
            )

    def explain(self) -> dict[str, Any]:
        return {
            "op": "Project",
            "columns": list(self.schema),
            "child": self.child.explain(),
        }


class NestedLoopJoin(PhysicalOperator):
    """Equi-join by scanning the inner input once per outer row."""

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        outer_column: str,
        inner_column: str,
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        self.outer = outer
        self.inner = inner
        self.outer_column = outer_column
        self.inner_column = inner_column
        self._schema = _join_schema(outer.schema, inner.schema)

    @property
    def schema(self) -> tuple[str, ...]:
        return self._schema

    def rows(self) -> Iterator[Row]:
        inner_rows = list(self.inner.rows())
        inner_position = self.inner.layout[self.inner_column]
        outer_position = self.outer.layout[self.outer_column]
        for outer_row in self.outer.rows():
            key = outer_row[outer_position]
            for inner_row in inner_rows:
                self.cost.compute_ops += 1
                if inner_row[inner_position] == key:
                    yield outer_row + inner_row

    def explain(self) -> dict[str, Any]:
        return {
            "op": "NestedLoopJoin",
            "on": f"{self.outer_column} = {self.inner_column}",
            "outer": self.outer.explain(),
            "inner": self.inner.explain(),
        }


class HashJoin(PhysicalOperator):
    """Equi-join by building a hash table on the inner (build) input."""

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        outer_column: str,
        inner_column: str,
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        self.outer = outer
        self.inner = inner
        self.outer_column = outer_column
        self.inner_column = inner_column
        self._schema = _join_schema(outer.schema, inner.schema)

    @property
    def schema(self) -> tuple[str, ...]:
        return self._schema

    def rows(self) -> Iterator[Row]:
        inner_position = self.inner.layout[self.inner_column]
        build: dict[Any, list[Row]] = defaultdict(list)
        for inner_row in self.inner.rows():
            self.cost.compute_ops += 1
            build[inner_row[inner_position]].append(inner_row)
        outer_position = self.outer.layout[self.outer_column]
        for outer_row in self.outer.rows():
            self.cost.compute_ops += 1
            for inner_row in build.get(outer_row[outer_position], ()):
                yield outer_row + inner_row

    def explain(self) -> dict[str, Any]:
        return {
            "op": "HashJoin",
            "on": f"{self.outer_column} = {self.inner_column}",
            "outer": self.outer.explain(),
            "inner": self.inner.explain(),
        }


class MergeJoin(PhysicalOperator):
    """Equi-join by sorting both inputs on the join key and merging."""

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        outer_column: str,
        inner_column: str,
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        self.outer = outer
        self.inner = inner
        self.outer_column = outer_column
        self.inner_column = inner_column
        self._schema = _join_schema(outer.schema, inner.schema)

    @property
    def schema(self) -> tuple[str, ...]:
        return self._schema

    def rows(self) -> Iterator[Row]:
        outer_position = self.outer.layout[self.outer_column]
        inner_position = self.inner.layout[self.inner_column]
        outer_rows = sorted(self.outer.rows(), key=lambda row: row[outer_position])
        inner_rows = sorted(self.inner.rows(), key=lambda row: row[inner_position])
        self.cost.compute_ops += len(outer_rows) + len(inner_rows)
        outer_index = inner_index = 0
        while outer_index < len(outer_rows) and inner_index < len(inner_rows):
            outer_key = outer_rows[outer_index][outer_position]
            inner_key = inner_rows[inner_index][inner_position]
            self.cost.compute_ops += 1
            if outer_key < inner_key:
                outer_index += 1
            elif outer_key > inner_key:
                inner_index += 1
            else:
                # Emit the cross product of this key group.
                inner_group_end = inner_index
                while (
                    inner_group_end < len(inner_rows)
                    and inner_rows[inner_group_end][inner_position] == inner_key
                ):
                    inner_group_end += 1
                while (
                    outer_index < len(outer_rows)
                    and outer_rows[outer_index][outer_position] == outer_key
                ):
                    for position in range(inner_index, inner_group_end):
                        yield outer_rows[outer_index] + inner_rows[position]
                    outer_index += 1
                inner_index = inner_group_end

    def explain(self) -> dict[str, Any]:
        return {
            "op": "MergeJoin",
            "on": f"{self.outer_column} = {self.inner_column}",
            "outer": self.outer.explain(),
            "inner": self.inner.explain(),
        }


@dataclass(frozen=True)
class Aggregate:
    """One aggregate in a GROUP BY: function, input column, output alias."""

    function: str  # count | sum | min | max | avg
    column: str | None  # None only for count(*)
    alias: str

    _FUNCTIONS = ("count", "sum", "min", "max", "avg")

    def __post_init__(self) -> None:
        if self.function not in self._FUNCTIONS:
            raise EngineError(
                f"unknown aggregate {self.function!r}; "
                f"supported: {self._FUNCTIONS}"
            )
        if self.function != "count" and self.column is None:
            raise EngineError(f"aggregate {self.function!r} needs a column")


class _AggState:
    """Incremental state of one aggregate over one group."""

    def __init__(self, function: str) -> None:
        self.function = function
        self.count = 0
        self.total = 0.0
        self.minimum: Any = None
        self.maximum: Any = None

    def update(self, value: Any) -> None:
        self.count += 1
        if self.function in ("sum", "avg") and value is not None:
            self.total += value
        if self.function == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        if self.function == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self) -> Any:
        if self.function == "count":
            return self.count
        if self.function == "sum":
            return self.total
        if self.function == "avg":
            return self.total / self.count if self.count else None
        if self.function == "min":
            return self.minimum
        return self.maximum


class HashAggregate(PhysicalOperator):
    """GROUP BY via an in-memory hash of group keys."""

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: list[str],
        aggregates: list[Aggregate],
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        if not aggregates and not group_by:
            raise EngineError("aggregate needs group keys or aggregates")
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)

    @property
    def schema(self) -> tuple[str, ...]:
        return tuple(self.group_by) + tuple(agg.alias for agg in self.aggregates)

    def rows(self) -> Iterator[Row]:
        layout = self.child.layout
        key_positions = [layout[column] for column in self.group_by]
        agg_positions = [
            layout[agg.column] if agg.column is not None else None
            for agg in self.aggregates
        ]
        groups: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        for row in self.child.rows():
            self.cost.compute_ops += 1
            key = tuple(row[position] for position in key_positions)
            states = groups.get(key)
            if states is None:
                states = [_AggState(agg.function) for agg in self.aggregates]
                groups[key] = states
                order.append(key)
            for state, position in zip(states, agg_positions):
                state.update(row[position] if position is not None else 1)
        for key in order:
            yield key + tuple(state.result() for state in groups[key])

    def explain(self) -> dict[str, Any]:
        return {
            "op": "HashAggregate",
            "group_by": self.group_by,
            "aggregates": [f"{a.function}({a.column})" for a in self.aggregates],
            "child": self.child.explain(),
        }


class Sort(PhysicalOperator):
    """ORDER BY (full materializing sort)."""

    def __init__(
        self,
        child: PhysicalOperator,
        order_by: list[tuple[str, bool]],
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        if not order_by:
            raise EngineError("sort needs at least one order key")
        self.child = child
        self.order_by = list(order_by)

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def rows(self) -> Iterator[Row]:
        layout = self.child.layout
        materialized = list(self.child.rows())
        self.cost.compute_ops += len(materialized)
        # Stable sorts applied in reverse give multi-key ordering.
        for column, descending in reversed(self.order_by):
            position = layout[column]
            materialized.sort(key=lambda row: row[position], reverse=descending)
        yield from materialized

    def explain(self) -> dict[str, Any]:
        return {
            "op": "Sort",
            "order_by": [
                f"{column} {'desc' if descending else 'asc'}"
                for column, descending in self.order_by
            ],
            "child": self.child.explain(),
        }


class Limit(PhysicalOperator):
    """LIMIT n."""

    def __init__(self, child: PhysicalOperator, count: int, cost: CostCounters) -> None:
        super().__init__(cost)
        if count < 0:
            raise EngineError(f"limit must be non-negative, got {count}")
        self.child = child
        self.count = count

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def rows(self) -> Iterator[Row]:
        emitted = 0
        for row in self.child.rows():
            if emitted >= self.count:
                break
            emitted += 1
            yield row

    def explain(self) -> dict[str, Any]:
        return {"op": "Limit", "count": self.count, "child": self.child.explain()}


class Materialize(PhysicalOperator):
    """Wrap already-computed rows as an operator (for derived inputs)."""

    def __init__(
        self, schema: tuple[str, ...], rows: list[Row], cost: CostCounters
    ) -> None:
        super().__init__(cost)
        self._schema = schema
        self._rows = rows

    @property
    def schema(self) -> tuple[str, ...]:
        return self._schema

    def rows(self) -> Iterator[Row]:
        yield from self._rows

    def explain(self) -> dict[str, Any]:
        return {"op": "Materialize", "rows": len(self._rows)}


def _join_schema(
    outer: tuple[str, ...], inner: tuple[str, ...]
) -> tuple[str, ...]:
    """Concatenate schemas, qualifying inner-side duplicates."""
    seen = set(outer)
    merged = list(outer)
    for column in inner:
        name = column
        while name in seen:
            name = f"{name}_r"
        seen.add(name)
        merged.append(name)
    return tuple(merged)
