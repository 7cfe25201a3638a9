"""Storage layer of the relational engine: heap tables and indexes.

Two layouts share one logical table.  :class:`HeapTable` is the
row-major store all mutations go through; :meth:`HeapTable.columnar`
derives a cached :class:`ColumnarTable` — a column-major snapshot with
typed arrays where a column is homogeneous — that the vectorized
operators in :mod:`repro.engines.dbms.vector_plans` scan batch-at-a-
time.  The snapshot pins the live rows when it is taken and transposes
a column the first time a plan reads it; a table version counter
replaces it after any mutation, so a view never mixes two states of
the heap and a query pays only for the columns it reads.
"""

from __future__ import annotations

import array as _array
import bisect
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter
from typing import Any

from repro.core.errors import EngineError

Row = tuple


class SortedIndex:
    """A secondary index: sorted (value, row_id) entries with binary search.

    The pure-Python stand-in for a B-tree — O(log n) point lookups and
    ordered range scans, which is all the planner needs to make realistic
    index-vs-scan decisions.  Entries are kept as ``(type_rank, value,
    row_id)`` so mixed-type columns (ints and strings) stay totally
    ordered.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: list[tuple[int, Any, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def build(self, values: Iterable[tuple[Any, int]]) -> None:
        """Bulk-build from (value, row_id) pairs."""
        self._entries = sorted(
            (_type_rank(value), value, row_id) for value, row_id in values
        )

    def insert(self, value: Any, row_id: int) -> None:
        bisect.insort(self._entries, (_type_rank(value), value, row_id))

    def remove(self, value: Any, row_id: int) -> None:
        position = bisect.bisect_left(
            self._entries, (_type_rank(value), value, row_id)
        )
        if (
            position < len(self._entries)
            and self._entries[position] == (_type_rank(value), value, row_id)
        ):
            del self._entries[position]

    def lookup(self, value: Any) -> list[int]:
        """Row ids whose indexed value equals ``value``, ascending."""
        rank = _type_rank(value)
        start = bisect.bisect_left(self._entries, (rank, value, -1))
        row_ids: list[int] = []
        for position in range(start, len(self._entries)):
            entry_rank, entry_value, row_id = self._entries[position]
            if (entry_rank, entry_value) != (rank, value):
                break
            row_ids.append(row_id)
        return row_ids

    def range_scan(self, low: Any = None, high: Any = None) -> list[int]:
        """Row ids with low <= value <= high (either bound optional)."""
        start = 0
        if low is not None:
            start = bisect.bisect_left(self._entries, (_type_rank(low), low, -1))
        end = len(self._entries)
        if high is not None:
            end = bisect.bisect_right(
                self._entries, (_type_rank(high), high, float("inf"))
            )
        return [row_id for _, _, row_id in self._entries[start:end]]


def _type_rank(value: Any) -> int:
    """Keep heterogenous index keys sortable: numbers, strings, NULLs.

    Values that compare equal must share a rank, or a lookup would miss
    rows a scan finds: ``True == 1 == 1.0``, so bools rank with the
    numbers.  ``None`` orders against nothing and gets a rank of its own.
    """
    if isinstance(value, (int, float)):
        return 0
    if value is None:
        return 2
    return 1


class HeapTable:
    """An append-oriented in-memory table with optional secondary indexes.

    Deleted rows are tombstoned (set to ``None``) so row ids stay stable
    for the indexes; :meth:`compact` rebuilds storage when fragmentation
    grows.
    """

    def __init__(self, name: str, schema: Sequence[str]) -> None:
        if not schema:
            raise EngineError(f"table {name!r} needs at least one column")
        if len(set(schema)) != len(schema):
            raise EngineError(f"table {name!r} has duplicate column names")
        self.name = name
        self.schema = tuple(schema)
        self._layout = {column: index for index, column in enumerate(self.schema)}
        self._rows: list[Row | None] = []
        self._live_count = 0
        self.indexes: dict[str, SortedIndex] = {}
        self._version = 0
        self._columnar_cache: tuple[int, "ColumnarTable"] | None = None

    # ------------------------------------------------------------------
    # Schema helpers
    # ------------------------------------------------------------------

    @property
    def layout(self) -> dict[str, int]:
        return dict(self._layout)

    def column_position(self, column: str) -> int:
        try:
            return self._layout[column]
        except KeyError:
            raise EngineError(
                f"table {self.name!r} has no column {column!r}; "
                f"columns: {self.schema}"
            ) from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        """Append one row; returns its row id."""
        if len(row) != len(self.schema):
            raise EngineError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(row)}"
            )
        row_tuple = tuple(row)
        row_id = len(self._rows)
        self._rows.append(row_tuple)
        self._live_count += 1
        self._version += 1
        for column, index in self.indexes.items():
            index.insert(row_tuple[self._layout[column]], row_id)
        return row_id

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted.

        Equal to :meth:`insert` on each row in turn, a wrong-width row
        included: the rows before it stay inserted, it raises, and
        nothing after it is inserted.
        """
        tuples = list(map(tuple, rows))
        width = len(self.schema)
        if not set(map(len, tuples)) <= {width}:
            first_bad = next(
                position
                for position, row in enumerate(tuples)
                if len(row) != width
            )
            self.insert_many(tuples[:first_bad])
            self.insert(tuples[first_bad])  # raises
        first_id = len(self._rows)
        self._rows.extend(tuples)
        self._live_count += len(tuples)
        self._version += len(tuples)
        for column, index in self.indexes.items():
            position = self._layout[column]
            for row_id, row in enumerate(tuples, first_id):
                index.insert(row[position], row_id)
        return len(tuples)

    def delete_row(self, row_id: int) -> None:
        row = self._row_or_raise(row_id)
        for column, index in self.indexes.items():
            index.remove(row[self._layout[column]], row_id)
        self._rows[row_id] = None
        self._live_count -= 1
        self._version += 1

    def update_row(self, row_id: int, updates: dict[str, Any]) -> Row:
        """Update columns of one row in place; returns the new row."""
        row = list(self._row_or_raise(row_id))
        for column, value in updates.items():
            position = self.column_position(column)
            old_value = row[position]
            if column in self.indexes:
                self.indexes[column].remove(old_value, row_id)
                self.indexes[column].insert(value, row_id)
            row[position] = value
        new_row = tuple(row)
        self._rows[row_id] = new_row
        self._version += 1
        return new_row

    def _row_or_raise(self, row_id: int) -> Row:
        if not 0 <= row_id < len(self._rows) or self._rows[row_id] is None:
            raise EngineError(f"table {self.name!r} has no live row {row_id}")
        row = self._rows[row_id]
        assert row is not None
        return row

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[Row]:
        """Yield every live row."""
        for row in self._rows:
            if row is not None:
                yield row

    def items(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(row_id, row)`` for every live row, ids ascending."""
        for row_id, row in enumerate(self._rows):
            if row is not None:
                yield row_id, row

    def fetch(self, row_id: int) -> Row:
        return self._row_or_raise(row_id)

    def __len__(self) -> int:
        return self._live_count

    # ------------------------------------------------------------------
    # Indexing & maintenance
    # ------------------------------------------------------------------

    def create_index(self, column: str) -> SortedIndex:
        """Build a secondary index on ``column``."""
        if column in self.indexes:
            raise EngineError(
                f"table {self.name!r} already has an index on {column!r}"
            )
        position = self.column_position(column)
        index = SortedIndex(column)
        index.build((row[position], row_id) for row_id, row in self.items())
        self.indexes[column] = index
        return index

    def has_index(self, column: str) -> bool:
        return column in self.indexes

    def compact(self) -> int:
        """Drop tombstones and rebuild indexes; returns reclaimed slots."""
        reclaimed = len(self._rows) - self._live_count
        self._rows = [row for row in self._rows if row is not None]
        self._version += 1
        for column in list(self.indexes):
            position = self._layout[column]
            index = SortedIndex(column)
            index.build(
                (row[position], row_id) for row_id, row in enumerate(self._rows)
            )
            self.indexes[column] = index
        return reclaimed

    # ------------------------------------------------------------------
    # Columnar view
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter (columnar cache invalidation)."""
        return self._version

    def columnar(self) -> "ColumnarTable":
        """The column-major view of this table, rebuilt only on mutation."""
        if (
            self._columnar_cache is not None
            and self._columnar_cache[0] == self._version
        ):
            return self._columnar_cache[1]
        view = ColumnarTable.from_heap(self)
        self._columnar_cache = (self._version, view)
        return view


class ColumnarTable:
    """A column-major snapshot of a heap table.

    The snapshot is the list of live row tuples as they were when the
    view was taken: tuples are immutable and the heap replaces, never
    edits, a row it updates, so every column of one view shows the same
    state of the table whenever it is first read.  A column is
    transposed out of those rows, and packed, on that first read; a
    plan that reads two columns of five pays for two.

    Each column is a typed ``array.array`` when every value shares one
    numeric type (``'q'`` for ints, ``'d'`` for floats — bools are
    deliberately left in plain lists so ``True`` survives round-trips
    bit-identically), and a plain list otherwise.  ``row_ids`` maps each
    position back to its heap row id, which lets the shared
    :class:`SortedIndex` (built over heap row ids) drive positional
    gathers on the columnar view.
    """

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        rows: Sequence[Row],
        row_ids: Sequence[int],
    ) -> None:
        self.name = name
        self.schema = tuple(schema)
        self.row_ids = row_ids
        self.num_rows = len(rows)
        self._rows = rows
        #: The columns some plan has read so far, transposed and packed.
        self.columns: dict[str, Sequence[Any]] = {}
        self._position_of: dict[int, int] | None = None

    @classmethod
    def from_heap(cls, table: HeapTable) -> "ColumnarTable":
        """Snapshot a heap table's live rows."""
        rows = table._rows
        if len(table) == len(rows):
            return cls(table.name, table.schema, rows.copy(), range(len(rows)))
        row_ids = [
            row_id for row_id, row in enumerate(rows) if row is not None
        ]
        return cls(
            table.name,
            table.schema,
            [rows[row_id] for row_id in row_ids],
            row_ids,
        )

    def column(self, name: str) -> Sequence[Any]:
        column = self.columns.get(name)
        if column is None:
            try:
                slot = self.schema.index(name)
            except ValueError:
                raise EngineError(
                    f"table {self.name!r} has no column {name!r}; "
                    f"columns: {self.schema}"
                ) from None
            column = self.columns[name] = _pack_column(
                list(map(itemgetter(slot), self._rows))
            )
        return column

    def positions_for(self, row_ids: Iterable[int]) -> list[int]:
        """Columnar positions of heap row ids (index lookups → gathers)."""
        position_of = self._position_of
        if position_of is None:
            position_of = self._position_of = {
                row_id: position
                for position, row_id in enumerate(self.row_ids)
            }
        return [
            position_of[row_id]
            for row_id in row_ids
            if row_id in position_of
        ]

    def __len__(self) -> int:
        return self.num_rows


def _pack_column(values: list[Any]) -> Sequence[Any]:
    """Pick the tightest storage for one column's values.

    Typed arrays only when the whole column is one non-bool numeric
    type: ``array('q')`` round-trips ints exactly and ``array('d')``
    floats, while a mixed or bool-carrying column stays a plain list so
    every value (including ``True``/``None``/strings) reads back
    bit-identical to the heap row.
    """
    types = set(map(type, values))
    if types == {int}:
        try:
            return _array.array("q", values)
        except OverflowError:
            return values
    if types == {float}:
        return _array.array("d", values)
    return values
