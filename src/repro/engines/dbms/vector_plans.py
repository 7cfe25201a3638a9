"""Vectorized physical operators (batch-at-a-time columnar model).

The row operators in :mod:`repro.engines.dbms.plans` pull one tuple at a
time through the iterator tree; these operators pull a
:class:`ColumnBatch` — up to :data:`DEFAULT_BATCH_SIZE` rows held as
parallel column vectors — so per-row interpreter overhead (generator
resumption, per-row counter bumps, per-row expression-tree recursion) is
paid once per batch instead of once per row.  Predicates and projections
evaluate through :meth:`Expression.evaluate_batch`.

Materialisation is late.  A batch that dropped, reordered or joined rows
does not copy them: it records *where* its rows are — positions into the
vectors below it — and a column is gathered when an operator above
reads it, once.  The fused scan, the filter, the index scan, the hash
join and ``LIMIT`` all hand positions on; only the operators that must
see values (an expression, a join key, a group key, an aggregated
column, the final transposition into result rows) read columns, and
only the ones they name.

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
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import chain, compress, repeat
from typing import Any

from repro.core.errors import EngineError
from repro.engines.base import CostCounters
from repro.engines.dbms.expressions import Expression
from repro.engines.dbms.plans import (
    NO_VALUE,
    Aggregate,
    PhysicalOperator,
    _join_schema,
)
from repro.engines.dbms.storage import ColumnarTable, HeapTable

Row = tuple

#: Rows per column batch; large enough to amortize per-batch overhead,
#: small enough to keep working sets cache-friendly.
DEFAULT_BATCH_SIZE = 1024


#: Which rows of a vector a batch holds: all of them in order (``None``),
#: a contiguous run (a ``range``), or an explicit list of positions.
Positions = Sequence[int] | None
#: One column of a batch, not gathered yet: ``read(key)`` is a vector
#: below the batch (a table column, a column of the batch it was taken
#: from), ``positions`` the rows of that vector the batch holds.
Source = tuple[Callable[[Any], Sequence[Any]], Any, Positions]


def _gather(vector: Sequence[Any], positions: Positions) -> Sequence[Any]:
    if positions is None:
        return vector
    if type(positions) is range:
        return vector[positions.start : positions.stop]
    return [vector[position] for position in positions]


class ColumnBatch:
    """A batch of rows stored column-major, gathered column by column.

    Built from ``columns`` — one sequence (typed array slice, tuple, or
    list) of ``num_rows`` values per schema entry — or, with
    :meth:`deferred`, from one :data:`Source` per entry.  A deferred
    column is gathered the first time :meth:`column` is asked for it
    and kept, so a column nothing reads costs a tuple.
    """

    __slots__ = ("schema", "num_rows", "_columns", "_sources")

    def __init__(
        self,
        schema: tuple[str, ...],
        columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> None:
        self.schema = schema
        self.num_rows = num_rows
        self._columns: list[Sequence[Any] | None] = list(columns)
        self._sources: Sequence[Source] = ()

    @classmethod
    def deferred(
        cls, schema: tuple[str, ...], sources: Sequence[Source], num_rows: int
    ) -> "ColumnBatch":
        batch = cls(schema, [None] * len(schema), num_rows)
        batch._sources = sources
        return batch

    @classmethod
    def from_rows(cls, schema: tuple[str, ...], rows: list[Row]) -> "ColumnBatch":
        if rows:
            columns: Sequence[Sequence[Any]] = list(zip(*rows))
        else:
            columns = [() for _ in schema]
        return cls(schema, columns, len(rows))

    @classmethod
    def concatenated(
        cls, schema: tuple[str, ...], batches: Sequence["ColumnBatch"]
    ) -> "ColumnBatch":
        """The rows of ``batches`` in order; a column is joined up when read."""
        if len(batches) == 1:
            return batches[0]

        def read(slot: int) -> list[Any]:
            return list(
                chain.from_iterable(batch.column(slot) for batch in batches)
            )

        return cls.deferred(
            schema,
            [(read, slot, None) for slot in range(len(schema))],
            sum(batch.num_rows for batch in batches),
        )

    def column(self, slot: int) -> Sequence[Any]:
        """The values of the ``slot``-th schema entry, one per row."""
        column = self._columns[slot]
        if column is None:
            read, key, positions = self._sources[slot]
            column = self._columns[slot] = _gather(read(key), positions)
        return column

    def column_map(self) -> Mapping[str, Sequence[Any]]:
        """Named column vectors (what ``evaluate_batch`` consumes).

        Read on demand: looking a name up gathers that column, so an
        expression costs the columns it references.
        """
        return _ColumnMap(self)

    def take(self, positions: Sequence[int]) -> "ColumnBatch":
        """The rows at ``positions``, as positions into this batch's columns."""
        return ColumnBatch.deferred(
            self.schema,
            [
                (self.column, slot, positions)
                for slot in range(len(self.schema))
            ],
            len(positions),
        )

    def head(self, count: int) -> "ColumnBatch":
        """The first ``count`` rows (slices, no per-value gather)."""
        return self.take(range(min(count, self.num_rows)))

    def to_rows(self) -> list[Row]:
        """Transpose back to row tuples (batch boundary / row consumers)."""
        if not self.num_rows:
            return []
        return list(zip(*map(self.column, range(len(self.schema)))))

    def __len__(self) -> int:
        return self.num_rows


class _ColumnMap(Mapping):
    """A batch's columns under their names, each gathered when looked up."""

    __slots__ = ("_batch",)

    def __init__(self, batch: ColumnBatch) -> None:
        self._batch = batch

    def __getitem__(self, name: str) -> Sequence[Any]:
        try:
            slot = self._batch.schema.index(name)
        except ValueError:
            raise KeyError(name) from None
        return self._batch.column(slot)

    def __iter__(self) -> Iterator[str]:
        return iter(self._batch.schema)

    def __len__(self) -> int:
        return len(self._batch.schema)


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


def _table_batch(view: ColumnarTable, positions: Sequence[int]) -> ColumnBatch:
    """The rows of a columnar view at ``positions``, no column read yet."""
    read = view.column
    return ColumnBatch.deferred(
        view.schema,
        [(read, name, positions) for name in view.schema],
        len(positions),
    )


class ColumnarScan(VectorOperator):
    """Full scan of a table's columnar view, one batch per slice.

    A batch names the slice of every table column and reads none.  With
    a pushed-down ``predicate``, the scan evaluates it over the column
    vectors the predicate references and hands on the surviving
    positions — a column no operator above reads is never transposed
    out of the table, and one that is read is gathered for the
    survivors only.  Cost parity with the unfused ``ColumnarScan`` →
    ``BatchFilter`` pair is preserved exactly: ``records_read`` bumps
    once per scanned row and ``compute_ops`` once per predicate
    evaluation, so the architecture metrics cannot tell the plans
    apart; the win shows up in wall-clock ``duration`` (and one fewer
    operator in ``batches``).
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
        view = self.table.columnar()
        total = view.num_rows
        for start in range(0, total, self.batch_size):
            positions: Sequence[int] = range(
                start, min(start + self.batch_size, total)
            )
            count = len(positions)
            self.cost.records_read += count
            batch = _table_batch(view, positions)
            if self.predicate is not None:
                self.cost.compute_ops += count
                mask = self.predicate.evaluate_batch(batch.column_map(), count)
                positions = list(compress(positions, mask))
                if not positions:
                    continue
                if len(positions) < count:
                    batch = _table_batch(view, positions)
            self.cost.batches += 1
            yield batch

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
        for start in range(0, len(positions), self.batch_size):
            chunk = positions[start : start + self.batch_size]
            self.cost.records_read += len(chunk)
            self.cost.batches += 1
            yield _table_batch(view, chunk)

    def explain(self) -> dict[str, Any]:
        return {
            "op": "ColumnarIndexScan",
            "table": self.table.name,
            "column": self.column,
            "point": self.value is not NO_VALUE,
        }


class BatchFilter(VectorOperator):
    """Predicate filter: hands on the positions of the rows that pass."""

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
            selection = list(compress(range(batch.num_rows), mask))
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

    The table maps a key to the positions of its inner rows; probing an
    outer key vector yields two position lists, and an output batch is
    those two lists over the outer batch and the inner input — no row
    is assembled here.  Output row order matches
    :class:`~repro.engines.dbms.plans.HashJoin` exactly — outer order,
    inner matches in build-insertion order.
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
        inner_batches = []
        for batch in self.inner.batches():
            self.cost.compute_ops += batch.num_rows
            inner_batches.append(batch)
        inner = ColumnBatch.concatenated(self.inner.schema, inner_batches)
        build: dict[Any, list[int]] = defaultdict(list)
        inner_keys = inner.column(self.inner.layout[self.inner_column])
        for position, key in enumerate(inner_keys):
            build[key].append(position)
        inner_slots = range(len(inner.schema))
        outer_slot = self.outer.layout[self.outer_column]
        outer_slots = range(len(self.outer.schema))
        lookup = build.get
        for batch in self.outer.batches():
            self.cost.compute_ops += batch.num_rows
            # Per outer row, the inner positions under its key (or None).
            found = list(map(lookup, batch.column(outer_slot)))
            matches = list(filter(None, found))
            if not matches:
                continue
            inner_positions = list(chain.from_iterable(matches))
            outer_positions: Positions = None
            if len(inner_positions) > len(matches):
                # Some key matched several inner rows: its outer row
                # repeats once per match, matches in build order.
                outer_positions = list(
                    chain.from_iterable(
                        map(
                            repeat,
                            compress(range(batch.num_rows), found),
                            map(len, matches),
                        )
                    )
                )
            elif len(matches) < batch.num_rows:
                outer_positions = list(compress(range(batch.num_rows), found))
            # else every outer row matched once: its columns as they are.
            self.cost.batches += 1
            yield ColumnBatch.deferred(
                self._schema,
                [(batch.column, slot, outer_positions) for slot in outer_slots]
                + [(inner.column, slot, inner_positions) for slot in inner_slots],
                len(inner_positions),
            )

    def explain(self) -> dict[str, Any]:
        return {
            "op": "BatchHashJoin",
            "on": f"{self.outer_column} = {self.inner_column}",
            "outer": self.outer.explain(),
            "inner": self.inner.explain(),
        }


class _ColumnFold:
    """One aggregate over every group: a value per group id, folded a
    column at a time.

    The column twin of :class:`~repro.engines.dbms.plans._AggState`: to
    each group it applies the same updates with the same values in the
    same row order, so a float ``sum`` is the one the row path adds up
    and a comparison that raises there raises here.  ``count`` keeps
    nothing and reads no column: the operator counts each group's rows
    once for all its aggregates.
    """

    def __init__(self, function: str, slot: int | None) -> None:
        self.function = function
        self.slot = slot
        self.values: list[Any] = []

    def update(self, batch: ColumnBatch, ids: list[int], groups: int) -> None:
        """Fold one batch in; row ``i`` is in group ``ids[i] < groups``."""
        function = self.function
        if function == "count":
            return
        values = self.values
        adds = function in ("sum", "avg")
        values.extend([0.0 if adds else None] * (groups - len(values)))
        column = batch.column(self.slot)
        if adds:
            for group, value in zip(ids, column):
                if value is not None:
                    values[group] += value
        elif function == "min":
            for group, value in zip(ids, column):
                lowest = values[group]
                if lowest is None or value < lowest:
                    values[group] = value
        else:
            for group, value in zip(ids, column):
                highest = values[group]
                if highest is None or value > highest:
                    values[group] = value

    def result(self, group: int, count: int) -> Any:
        if self.function == "count":
            return count
        if self.function == "avg":
            return self.values[group] / count
        return self.values[group]


class BatchAggregate(VectorOperator):
    """GROUP BY over column keys, preserving first-seen group order.

    A batch's rows get their group ids in one pass over the key columns;
    each aggregate then folds its own value column against those ids.
    """

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
        layout = self.child.layout
        key_slots = [layout[column] for column in self.group_by]
        folds = [
            _ColumnFold(
                agg.function,
                layout[agg.column] if agg.column is not None else None,
            )
            for agg in self.aggregates
        ]
        #: Group key → group id, in first-seen order.
        group_ids: dict[tuple, int] = {}
        counts: list[int] = []
        for batch in self.child.batches():
            self.cost.compute_ops += batch.num_rows
            if key_slots:
                keys = list(zip(*map(batch.column, key_slots)))
            else:
                keys = [()] * batch.num_rows
            for key in dict.fromkeys(keys):
                if key not in group_ids:
                    group_ids[key] = len(group_ids)
                    counts.append(0)
            ids = list(map(group_ids.__getitem__, keys))
            for group, seen in Counter(ids).items():
                counts[group] += seen
            for fold in folds:
                fold.update(batch, ids, len(counts))
        results = [
            key + tuple(fold.result(group, counts[group]) for fold in folds)
            for key, group in group_ids.items()
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
