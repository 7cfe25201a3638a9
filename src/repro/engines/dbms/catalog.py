"""The system catalog: table metadata and statistics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import EngineError
from repro.engines.dbms.storage import HeapTable


@dataclass
class TableStats:
    """Planner-facing statistics about one table."""

    row_count: int
    indexed_columns: tuple[str, ...]


class Catalog:
    """Name → table registry with statistics for the planner."""

    def __init__(self) -> None:
        self._tables: dict[str, HeapTable] = {}

    def create_table(self, name: str, schema: tuple[str, ...]) -> HeapTable:
        if name in self._tables:
            raise EngineError(f"table {name!r} already exists")
        table = HeapTable(name, schema)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise EngineError(f"cannot drop unknown table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name]
        except KeyError:
            raise EngineError(
                f"unknown table {name!r}; tables: {sorted(self._tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def stats(self, name: str) -> TableStats:
        table = self.table(name)
        return TableStats(
            row_count=len(table),
            indexed_columns=tuple(sorted(table.indexes)),
        )
