"""Vectorized physical operators (batch-at-a-time columnar model).

The row operators in :mod:`repro.engines.dbms.plans` pull one tuple at a
time through the iterator tree; these operators pull a
:class:`ColumnBatch` — up to :data:`DEFAULT_BATCH_SIZE` rows held as
parallel column vectors — so per-row interpreter overhead (generator
resumption, per-row counter bumps, per-row expression-tree recursion) is
paid once per batch instead of once per row.  Predicates and projections
evaluate through :meth:`Expression.evaluate_batch`; filters carry a
selection vector of surviving positions rather than copying rows.

Cost parity is deliberate: every operator charges the same
``records_read``/``compute_ops`` totals as its row twin, so the
architecture metrics stay comparable across layouts.  The only new
signal is ``CostCounters.batches`` — incremented once per batch an
operator emits — which makes the batch structure of a run observable.

A :class:`VectorOperator` also exposes ``rows()``/``schema``/
``explain()``, so the engine and any row operator can consume it
unchanged; :class:`RowAdapter` wraps one explicitly when the planner
falls back to a row-only algorithm (e.g. merge join) mid-plan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Iterator, Sequence
from typing import Any

from repro.core.errors import EngineError
from repro.engines.base import CostCounters
from repro.engines.dbms.expressions import Expression
from repro.engines.dbms.plans import (
    NO_VALUE,
    Aggregate,
    PhysicalOperator,
    _AggState,
    _join_schema,
)
from repro.engines.dbms.storage import HeapTable

Row = tuple

#: Rows per column batch; large enough to amortize per-batch overhead,
#: small enough to keep working sets cache-friendly.
DEFAULT_BATCH_SIZE = 1024


class ColumnBatch:
    """A batch of rows stored column-major.

    ``columns`` is parallel to ``schema``; each entry is any sequence
    (typed array slice, tuple, or list) of ``num_rows`` values.
    """

    __slots__ = ("schema", "columns", "num_rows")

    def __init__(
        self,
        schema: tuple[str, ...],
        columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.num_rows = num_rows

    @classmethod
    def from_rows(cls, schema: tuple[str, ...], rows: list[Row]) -> "ColumnBatch":
        if rows:
            columns: Sequence[Sequence[Any]] = list(zip(*rows))
        else:
            columns = [() for _ in schema]
        return cls(schema, columns, len(rows))

    def column_map(self) -> dict[str, Sequence[Any]]:
        """Named column vectors (what ``evaluate_batch`` consumes)."""
        return dict(zip(self.schema, self.columns))

    def take(self, positions: list[int]) -> "ColumnBatch":
        """Gather the given positions into a new batch (selection vector)."""
        return ColumnBatch(
            self.schema,
            [
                [column[position] for position in positions]
                for column in self.columns
            ],
            len(positions),
        )

    def head(self, count: int) -> "ColumnBatch":
        """The first ``count`` rows (cheap slices, no per-value gather)."""
        return ColumnBatch(
            self.schema,
            [column[:count] for column in self.columns],
            min(count, self.num_rows),
        )

    def to_rows(self) -> list[Row]:
        """Transpose back to row tuples (batch boundary / row consumers)."""
        if not self.num_rows:
            return []
        return list(zip(*self.columns))

    def __len__(self) -> int:
        return self.num_rows


class VectorOperator(ABC):
    """Base class of vectorized operators.

    Duck-types to :class:`~repro.engines.dbms.plans.PhysicalOperator`
    (``schema``/``rows()``/``explain()``/``layout``) so the engine and
    row operators can consume a vector subtree without special cases.
    """

    def __init__(self, cost: CostCounters) -> None:
        self.cost = cost

    @property
    @abstractmethod
    def schema(self) -> tuple[str, ...]:
        """Output column names."""

    @abstractmethod
    def batches(self) -> Iterator[ColumnBatch]:
        """Yield output batches."""

    @abstractmethod
    def explain(self) -> dict[str, Any]:
        """A nested description of this plan subtree."""

    def rows(self) -> Iterator[Row]:
        """Row view of the batch stream (the engine's consumption API)."""
        for batch in self.batches():
            yield from batch.to_rows()

    @property
    def layout(self) -> dict[str, int]:
        return {column: index for index, column in enumerate(self.schema)}


class ColumnarScan(VectorOperator):
    """Full scan of a table's columnar view, one batch per slice.

    With a pushed-down ``predicate``, the scan evaluates it over only
    the column vectors the predicate references and materializes the
    remaining columns just for the surviving positions — a batch whose
    rows are all filtered out never touches the untouched columns at
    all.  Cost parity with the unfused ``ColumnarScan`` → ``BatchFilter``
    pair is preserved exactly: ``records_read`` bumps once per scanned
    row and ``compute_ops`` once per predicate evaluation, so the
    architecture metrics cannot tell the plans apart; the win shows up
    in wall-clock ``duration`` (and one fewer operator in ``batches``).
    """

    def __init__(
        self,
        table: HeapTable,
        cost: CostCounters,
        batch_size: int = DEFAULT_BATCH_SIZE,
        predicate: Expression | None = None,
    ) -> None:
        super().__init__(cost)
        if batch_size <= 0:
            raise EngineError(f"batch_size must be positive, got {batch_size}")
        self.table = table
        self.batch_size = batch_size
        self.predicate = predicate

    @property
    def schema(self) -> tuple[str, ...]:
        return self.table.schema

    def batches(self) -> Iterator[ColumnBatch]:
        if self.predicate is not None:
            yield from self._filtered_batches()
            return
        view = self.table.columnar()
        columns = [view.column(name) for name in view.schema]
        total = view.num_rows
        for start in range(0, total, self.batch_size):
            stop = min(start + self.batch_size, total)
            count = stop - start
            self.cost.records_read += count
            self.cost.batches += 1
            yield ColumnBatch(
                view.schema,
                [column[start:stop] for column in columns],
                count,
            )

    def _filtered_batches(self) -> Iterator[ColumnBatch]:
        view = self.table.columnar()
        schema = view.schema
        needed = self.predicate.columns() & set(schema)
        columns = {name: view.column(name) for name in schema}
        total = view.num_rows
        for start in range(0, total, self.batch_size):
            stop = min(start + self.batch_size, total)
            count = stop - start
            self.cost.records_read += count
            self.cost.compute_ops += count
            # Only the predicate's columns are sliced for evaluation.
            predicate_map = {
                name: columns[name][start:stop] for name in needed
            }
            mask = self.predicate.evaluate_batch(predicate_map, count)
            selection = [
                position for position, keep in enumerate(mask) if keep
            ]
            if not selection:
                continue
            self.cost.batches += 1
            if len(selection) == count:
                yield ColumnBatch(
                    schema,
                    [columns[name][start:stop] for name in schema],
                    count,
                )
            else:
                yield ColumnBatch(
                    schema,
                    [
                        [columns[name][start + position]
                         for position in selection]
                        for name in schema
                    ],
                    len(selection),
                )

    def explain(self) -> dict[str, Any]:
        explained: dict[str, Any] = {
            "op": "ColumnarScan",
            "table": self.table.name,
            "rows": len(self.table),
            "batch_size": self.batch_size,
        }
        if self.predicate is not None:
            explained["predicate"] = repr(self.predicate)
        return explained


class ColumnarIndexScan(VectorOperator):
    """Index lookup gathered positionally from the columnar view."""

    def __init__(
        self,
        table: HeapTable,
        column: str,
        cost: CostCounters,
        value: Any = NO_VALUE,
        low: Any = None,
        high: Any = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
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
        self.batch_size = batch_size

    @property
    def schema(self) -> tuple[str, ...]:
        return self.table.schema

    def batches(self) -> Iterator[ColumnBatch]:
        view = self.table.columnar()
        index = self.table.indexes[self.column]
        if self.value is not NO_VALUE:
            row_ids = index.lookup(self.value)
        else:
            row_ids = index.range_scan(self.low, self.high)
        positions = view.positions_for(row_ids)
        columns = [view.column(name) for name in view.schema]
        for start in range(0, len(positions), self.batch_size):
            chunk = positions[start : start + self.batch_size]
            self.cost.records_read += len(chunk)
            self.cost.batches += 1
            yield ColumnBatch(
                view.schema,
                [
                    [column[position] for position in chunk]
                    for column in columns
                ],
                len(chunk),
            )

    def explain(self) -> dict[str, Any]:
        return {
            "op": "ColumnarIndexScan",
            "table": self.table.name,
            "column": self.column,
            "point": self.value is not NO_VALUE,
        }


class BatchFilter(VectorOperator):
    """Predicate filter via a selection vector over each input batch."""

    def __init__(
        self,
        child: VectorOperator,
        predicate: Expression,
        cost: CostCounters,
    ) -> None:
        super().__init__(cost)
        self.child = child
        self.predicate = predicate

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            self.cost.compute_ops += batch.num_rows
            mask = self.predicate.evaluate_batch(
                batch.column_map(), batch.num_rows
            )
            selection = [
                position for position, keep in enumerate(mask) if keep
            ]
            if not selection:
                continue
            self.cost.batches += 1
            if len(selection) == batch.num_rows:
                yield batch
            else:
                yield batch.take(selection)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchFilter",
            "predicate": repr(self.predicate),
            "child": self.child.explain(),
        }


class BatchProject(VectorOperator):
    """Projection/computed expressions, one ``evaluate_batch`` per output."""

    def __init__(
        self,
        child: VectorOperator,
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

    def batches(self) -> Iterator[ColumnBatch]:
        schema = self.schema
        for batch in self.child.batches():
            self.cost.compute_ops += batch.num_rows
            column_map = batch.column_map()
            outputs = [
                expression.evaluate_batch(column_map, batch.num_rows)
                for _, expression in self.columns
            ]
            self.cost.batches += 1
            yield ColumnBatch(schema, outputs, batch.num_rows)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchProject",
            "columns": list(self.schema),
            "child": self.child.explain(),
        }


class BatchHashJoin(VectorOperator):
    """Equi-join: build a hash table on the inner side, probe per batch.

    Output row order matches :class:`~repro.engines.dbms.plans.HashJoin`
    exactly — outer order, inner matches in build-insertion order.
    """

    def __init__(
        self,
        outer: VectorOperator,
        inner: VectorOperator,
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

    def batches(self) -> Iterator[ColumnBatch]:
        inner_position = self.inner.layout[self.inner_column]
        build: dict[Any, list[Row]] = defaultdict(list)
        for batch in self.inner.batches():
            self.cost.compute_ops += batch.num_rows
            keys = batch.columns[inner_position]
            for key, row in zip(keys, batch.to_rows()):
                build[key].append(row)
        outer_position = self.outer.layout[self.outer_column]
        lookup = build.get
        for batch in self.outer.batches():
            self.cost.compute_ops += batch.num_rows
            keys = batch.columns[outer_position]
            joined: list[Row] = []
            for key, outer_row in zip(keys, batch.to_rows()):
                matches = lookup(key)
                if matches:
                    for inner_row in matches:
                        joined.append(outer_row + inner_row)
            if joined:
                self.cost.batches += 1
                yield ColumnBatch.from_rows(self._schema, joined)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchHashJoin",
            "on": f"{self.outer_column} = {self.inner_column}",
            "outer": self.outer.explain(),
            "inner": self.inner.explain(),
        }


class BatchAggregate(VectorOperator):
    """GROUP BY over column keys, preserving first-seen group order."""

    def __init__(
        self,
        child: VectorOperator,
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

    def batches(self) -> Iterator[ColumnBatch]:
        groups: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        for batch in self.child.batches():
            self.cost.compute_ops += batch.num_rows
            column_map = batch.column_map()
            if self.group_by:
                keys = list(
                    zip(*(column_map[column] for column in self.group_by))
                )
            else:
                keys = [()] * batch.num_rows
            value_columns = [
                column_map[agg.column] if agg.column is not None else None
                for agg in self.aggregates
            ]
            for position, key in enumerate(keys):
                states = groups.get(key)
                if states is None:
                    states = [
                        _AggState(agg.function) for agg in self.aggregates
                    ]
                    groups[key] = states
                    order.append(key)
                for state, values in zip(states, value_columns):
                    state.update(
                        values[position] if values is not None else 1
                    )
        results = [
            key + tuple(state.result() for state in groups[key])
            for key in order
        ]
        if results:
            self.cost.batches += 1
            yield ColumnBatch.from_rows(self.schema, results)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchAggregate",
            "group_by": self.group_by,
            "aggregates": [f"{a.function}({a.column})" for a in self.aggregates],
            "child": self.child.explain(),
        }


class BatchSort(VectorOperator):
    """ORDER BY: materialize the stream, sort, emit one batch."""

    def __init__(
        self,
        child: VectorOperator,
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

    def batches(self) -> Iterator[ColumnBatch]:
        layout = self.child.layout
        materialized: list[Row] = []
        for batch in self.child.batches():
            materialized.extend(batch.to_rows())
        self.cost.compute_ops += len(materialized)
        for column, descending in reversed(self.order_by):
            position = layout[column]
            materialized.sort(
                key=lambda row: row[position], reverse=descending
            )
        if materialized:
            self.cost.batches += 1
            yield ColumnBatch.from_rows(self.schema, materialized)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchSort",
            "order_by": [
                f"{column} {'desc' if descending else 'asc'}"
                for column, descending in self.order_by
            ],
            "child": self.child.explain(),
        }


class BatchLimit(VectorOperator):
    """LIMIT n, trimming the final batch with slices."""

    def __init__(
        self, child: VectorOperator, count: int, cost: CostCounters
    ) -> None:
        super().__init__(cost)
        if count < 0:
            raise EngineError(f"limit must be non-negative, got {count}")
        self.child = child
        self.count = count

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def batches(self) -> Iterator[ColumnBatch]:
        remaining = self.count
        for batch in self.child.batches():
            if remaining <= 0:
                break
            self.cost.batches += 1
            if batch.num_rows <= remaining:
                remaining -= batch.num_rows
                yield batch
            else:
                yield batch.head(remaining)
                remaining = 0

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchLimit",
            "count": self.count,
            "child": self.child.explain(),
        }


class RowAdapter(PhysicalOperator):
    """Present a vector subtree as a row operator.

    Used when the planner must fall back to a row-only algorithm (merge
    or nested-loop join) above an already-vectorized input: the subtree
    below keeps its batch wins, the operators above consume rows.
    """

    def __init__(self, child: VectorOperator, cost: CostCounters) -> None:
        super().__init__(cost)
        self.child = child

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def rows(self) -> Iterator[Row]:
        yield from self.child.rows()

    def explain(self) -> dict[str, Any]:
        return {"op": "RowAdapter", "child": self.child.explain()}
