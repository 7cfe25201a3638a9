"""Physical query operators (iterator model).

Each operator exposes ``schema`` (output column names), ``rows()`` (a
generator of output tuples), and ``explain()`` (a nested plan description
used by the planner ablation benchmarks).  Operators charge their work to
a shared :class:`~repro.engines.base.CostCounters` so architecture
metrics can be derived from any query.

An operator pays per query, not per row: it counts in locals and adds
each total to the shared counters once, in a ``finally``, so the totals
are what a bump per row would have left wherever the query stopped (its
input drained, or a ``LIMIT`` closing it at a yield).  Predicates and
projections run bound (:meth:`Expression.bind`), and ``GROUP BY`` folds
through :class:`_GroupFold`, which the columnar twin shares.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, compress, filterfalse, islice, repeat
from itertools import count as count_from
from operator import eq, iadd, is_not, itemgetter, truediv
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
        read = 0
        try:
            for read, row in enumerate(self.table.scan(), 1):
                yield row
        finally:
            self.cost.records_read += read

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
        fetch = self.table.fetch
        read = 0
        try:
            for read, row_id in enumerate(row_ids, 1):
                yield fetch(row_id)
        finally:
            self.cost.records_read += read

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
        accepts = self.predicate.bind(self.child.layout)
        evaluated = 0
        try:
            for evaluated, row in enumerate(self.child.rows(), 1):
                if accepts(row):
                    yield row
        finally:
            self.cost.compute_ops += evaluated

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
        outputs = [expression.bind(layout) for _, expression in self.columns]
        projected = 0
        try:
            for projected, row in enumerate(self.child.rows(), 1):
                yield tuple([output(row) for output in outputs])
        finally:
            self.cost.compute_ops += projected

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
        inner_key = itemgetter(self.inner.layout[self.inner_column])
        inner_keys = list(map(inner_key, inner_rows))
        outer_position = self.outer.layout[self.outer_column]
        positions = range(len(inner_rows))
        # Comparisons of finished outer rows, and of the current one up to
        # its last match: what one bump per comparison leaves at a yield.
        compared = partial_row = 0
        try:
            for outer_row in self.outer.rows():
                key = outer_row[outer_position]
                matches = map(eq, inner_keys, repeat(key))
                for position in compress(positions, matches):
                    partial_row = position + 1
                    yield outer_row + inner_rows[position]
                compared += len(inner_rows)
                partial_row = 0
        finally:
            self.cost.compute_ops += compared + partial_row

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
        outer_position = self.outer.layout[self.outer_column]
        build: dict[Any, list[Row]] = defaultdict(list)
        built = probed = 0
        try:
            for built, inner_row in enumerate(self.inner.rows(), 1):
                build[inner_row[inner_position]].append(inner_row)
            matches = build.get
            for probed, outer_row in enumerate(self.outer.rows(), 1):
                for inner_row in matches(outer_row[outer_position], ()):
                    yield outer_row + inner_row
        finally:
            self.cost.compute_ops += built + probed

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
        outer_rows = sorted(self.outer.rows(), key=itemgetter(outer_position))
        inner_rows = sorted(self.inner.rows(), key=itemgetter(inner_position))
        compared = len(outer_rows) + len(inner_rows)
        outer_index = inner_index = 0
        try:
            while outer_index < len(outer_rows) and inner_index < len(inner_rows):
                outer_key = outer_rows[outer_index][outer_position]
                inner_key = inner_rows[inner_index][inner_position]
                compared += 1
                if outer_key < inner_key:
                    outer_index += 1
                elif outer_key > inner_key:
                    inner_index += 1
                else:
                    # Emit the cross product of this key group.
                    inner_group_end = inner_index
                    while (
                        inner_group_end < len(inner_rows)
                        and inner_rows[inner_group_end][inner_position]
                        == inner_key
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
        finally:
            self.cost.compute_ops += compared

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


#: Rows a row operator hands the group fold at a time: one batch's worth.
_FOLD_CHUNK = 1024

_is_value = partial(is_not, None)


class _GroupFold:
    """The groups of one GROUP BY and its aggregates, in either layout.

    Input arrives a chunk of rows at a time (a batch, or a run of row
    tuples) as ``add(column, count)``, ``column(slot)`` being the chunk's
    values of one input column.  The fold keeps each row's group id (ids
    in first-seen order of the group keys) and each aggregated column's
    chunks, and folds every group once, in :meth:`results`: ``count``
    counts the group's rows; ``sum`` adds its non-``None`` values to
    ``0.0`` in row order, and ``avg`` divides that by the group's row
    count; ``min``/``max`` skip leading ``None`` values and compare the
    rest as the builtins do, so a ``None`` after a value raises.  Both
    layouts fold through this one class, so they agree bit for bit,
    exceptions included, whatever the batch size.
    """

    def __init__(
        self,
        layout: dict[str, int],
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
    ) -> None:
        self.key_slots = [layout[column] for column in group_by]
        self.functions = [aggregate.function for aggregate in aggregates]
        slots = [
            layout[aggregate.column] if aggregate.column is not None else None
            for aggregate in aggregates
        ]
        #: The input column each aggregate folds (``count`` reads none).
        self.value_slots = [
            None if function == "count" else slot
            for function, slot in zip(self.functions, slots)
        ]
        #: Group key → group id, in first-seen order.  One key column
        #: groups by its values: equal values are equal 1-tuples.
        self.group_ids: dict[Any, int] = {}
        self.ids: list[int] = []
        self.chunks: list[list[Sequence[Any]]] = [[] for _ in self.functions]

    def add(self, column: Callable[[int], Sequence[Any]], count: int) -> None:
        key_slots = self.key_slots
        if not key_slots:
            keys: Sequence[Any] = [()] * count
        elif len(key_slots) == 1:
            keys = column(key_slots[0])
        else:
            keys = list(zip(*map(column, key_slots)))
        group_ids = self.group_ids
        group_ids.update(
            zip(
                filterfalse(group_ids.__contains__, dict.fromkeys(keys)),
                count_from(len(group_ids)),
            )
        )
        self.ids.extend(map(group_ids.__getitem__, keys))
        for chunks, slot in zip(self.chunks, self.value_slots):
            if slot is not None:
                chunks.append(column(slot))

    def results(self) -> list[Row]:
        """One row per group, first-seen order: its key, then each aggregate."""
        groups = len(self.group_ids)
        if not groups:
            return []
        import numpy as np

        ids = np.array(self.ids, dtype=np.intp)
        counts = np.bincount(ids, minlength=groups).tolist()
        columns = [
            self._fold(function, chunks, ids, counts)
            for function, chunks in zip(self.functions, self.chunks)
        ]
        one_column = len(self.key_slots) == 1
        return [
            ((key,) if one_column else key)
            + tuple(column[group] for column in columns)
            for group, key in enumerate(self.group_ids)
        ]

    def _fold(
        self,
        function: str,
        chunks: list[Sequence[Any]],
        ids: Any,
        counts: list[int],
    ) -> list[Any]:
        if function == "count":
            return counts
        weights = None
        if function in ("sum", "avg"):
            weights = _float_weights(chunks, len(self.ids))
        if weights is not None:
            import numpy as np

            # Each group's running total takes its rows' weights one
            # after another from 0.0: the additions in Python, bit for bit.
            totals = np.bincount(ids, weights, minlength=len(counts)).tolist()
        else:
            members: list[list[Any]] = [[] for _ in counts]
            for group, value in zip(self.ids, chain.from_iterable(chunks)):
                members[group].append(value)
            if function in ("sum", "avg"):
                totals = [
                    reduce(iadd, filter(_is_value, values), 0.0)
                    for values in members
                ]
            else:
                pick = min if function == "min" else max
                return [_extreme(pick, values) for values in members]
        if function == "sum":
            return totals
        return list(map(truediv, totals, counts))


def _float_weights(chunks: list[Sequence[Any]], count: int) -> Any:
    """The ``count`` values of ``chunks`` as one float64 array, or ``None``.

    Only when every value is an ``int`` or a ``float`` (no ``None``, no
    ``bool``): a typed column chunk is one by construction, and numpy
    turns a Python ``int`` into a double as ``0.0 + int`` does, an
    ``int`` too large for a double raising ``OverflowError`` in both
    (that case is left to the additions in Python, which raise it).
    """
    import numpy as np

    if all(type(chunk) is array for chunk in chunks):
        return np.concatenate(
            [np.frombuffer(chunk, chunk.typecode) for chunk in chunks]
        ).astype(np.float64)
    if not all({*map(type, chunk)} <= _NUMBERS for chunk in chunks):
        return None
    try:
        return np.fromiter(chain.from_iterable(chunks), np.float64, count)
    except OverflowError:
        return None


_NUMBERS = {int, float}


def _extreme(pick: Callable[..., Any], values: list[Any]) -> Any:
    """``min``/``max`` of one group: leading ``None`` values skipped, then
    ``value < lowest`` (``>``) row by row, the builtin's comparisons."""
    rest = iter(values)
    for first in rest:
        if first is not None:
            return pick(chain((first,), rest))
    return None


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
        fold = _GroupFold(self.child.layout, self.group_by, self.aggregates)
        child_rows = self.child.rows()
        folded = 0
        try:
            while chunk := list(islice(child_rows, _FOLD_CHUNK)):
                folded += len(chunk)
                fold.add(
                    lambda slot: list(map(itemgetter(slot), chunk)), len(chunk)
                )
        finally:
            self.cost.compute_ops += folded
        yield from fold.results()

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
